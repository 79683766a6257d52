package main

import (
	"math"
	"testing"
	"time"
)

// The tail is the highest percentile, capped at p99, that leaves at least
// ten samples beyond it.
func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 21, 50, 99, 100, 120, 500, 999, 1000, 1001, 5000} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		q := tailQuantile(n)
		v := quantile(s, q)
		beyond := n - int(v)
		if beyond < 10 {
			t.Errorf("n=%d: q=%.4f leaves %d samples beyond, want >= 10", n, q, beyond)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: q=%.4f, want 0.99", n, q)
		}
		if n < 1000 && beyond != 10 {
			t.Errorf("n=%d: q=%.4f leaves %d samples beyond, want exactly 10 (the highest such percentile)", n, q, beyond)
		}
	}
	if q := tailQuantile(19); q != 0.5 {
		t.Errorf("n=19: q=%v, want the median", q)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0.5, 2}, {0.75, 3}, {1, 4}, {0.01, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample should read 0")
	}
}

// A burst confined to one window moves neither the lower quartile nor the
// median of the window medians, it shows in the whole-phase tail, and a
// failure reads as the request deadline.
func TestSummarizeMedianOverWindows(t *testing.T) {
	from := time.Unix(1000, 0)
	d := 5 * window
	var l latencies
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			v := 1.0
			if w == 2 {
				v = 50 // a burst in the middle window
			}
			l.ms = append(l.ms, v)
			l.at = append(l.at, from.Add(time.Duration(w)*window+time.Duration(i)*time.Millisecond))
		}
	}
	sm := l.summarize(from, d, 5000)
	if sm.Windows != 5 || sm.N != 500 || sm.P50 != 1 {
		t.Fatalf("summary = %+v, want 5 windows, n=500, p50=1", sm)
	}
	if sm.TailQ != 0.98 || sm.Tail != 50 {
		t.Fatalf("whole-phase tail = p%v %v, want the burst at p98 (ten samples beyond)", 100*sm.TailQ, sm.Tail)
	}

	var f latencies
	for i := 0; i < 30; i++ {
		f.ms = append(f.ms, math.Inf(1))
		f.at = append(f.at, from)
		f.failed++
	}
	if sm := f.summarize(from, window, 5000); sm.P50 != 5000 || sm.Failed != 30 {
		t.Fatalf("all-failed summary = %+v, want p50 = the 5000 ms deadline", sm)
	}
}

func TestRateWeightsAndSkipsFailures(t *testing.T) {
	from := time.Unix(0, 0)
	var reads, sides latencies
	for i := 0; i < 8; i++ {
		reads.ms = append(reads.ms, 1)
		reads.at = append(reads.at, from.Add(time.Duration(i)*window/8))
	}
	reads.ms = append(reads.ms, math.Inf(1))
	reads.at = append(reads.at, from)
	sides.ms = append(sides.ms, 1)
	sides.at = append(sides.at, from)
	got := rate(from, window, weighted{&reads, 32}, weighted{&sides, 1})
	want := (8*32 + 1) / window.Seconds()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("rate = %v, want %v", got, want)
	}
}

// The gated latency is the lower quartile of the window medians: slow
// windows beyond three quarters of the run do not move it.
func TestSummarizeLowerQuartileOfWindows(t *testing.T) {
	from := time.Unix(0, 0)
	var l latencies
	for w, v := range []float64{5, 1, 9, 2, 7, 3, 8, 4} {
		for i := 0; i < 30; i++ {
			l.ms = append(l.ms, v)
			l.at = append(l.at, from.Add(time.Duration(w)*window+time.Duration(i)*time.Millisecond))
		}
	}
	sm := l.summarize(from, 8*window, 5000)
	if sm.P50 != 2 {
		t.Fatalf("lower quartile %v of window medians 1..9; want 2", sm.P50)
	}
}
