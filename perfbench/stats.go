package main

import (
	"math"
	"slices"
	"time"
)

// window is the length of the slices a timed phase is cut into. Latency is
// computed per window and reported as the lower quartile of the window
// medians. On a shared host other tenants' load comes and goes over
// seconds and only ever adds time — window medians within one run differ by
// up to half — so the lower quartile ignores windows slowed by interference
// as long as a quarter of the run was clean, and unlike the single fastest
// window it does not ride on the sampling luck of one window.
const window = 3 * time.Second

// latencies collects one operation kind's per-request times in a timed
// phase. A failed request is recorded as +Inf, so it counts as missing every
// latency limit and lands in the tail instead of being dropped.
type latencies struct {
	ms     []float64
	at     []time.Time // when each request completed
	failed int
}

func (l *latencies) ok(d time.Duration) {
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.at = append(l.at, time.Now())
}

func (l *latencies) fail() {
	l.ms = append(l.ms, math.Inf(1))
	l.at = append(l.at, time.Now())
	l.failed++
}

func (l *latencies) n() int { return len(l.ms) }

// tailQuantile is the highest quantile, capped at 0.99, that leaves at least
// ten samples above it in a sample of n: 0.99 from 1000 samples up, below
// that 1-10/n, and the median when fewer than 20 samples exist.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// quantile returns the nearest-rank q-quantile of an ascending sample: the
// smallest value with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median of an unsorted sample (0 when empty).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// windows is the number of windows a phase of length d is cut into.
func windows(d time.Duration) int {
	return max(1, int(math.Round(float64(d)/float64(window))))
}

// windowOf maps a time in [from, from+d) to its window index.
func windowOf(t, from time.Time, d time.Duration, k int) int {
	return max(0, min(k-1, int(int64(t.Sub(from))*int64(k)/int64(max(1, d)))))
}

// summary is a latency sample reduced to what the benchmark reports.
type summary struct {
	N       int       // requests, failed ones included
	Failed  int       // of which failed
	Windows int       // windows with at least one request
	P50     float64   // ms: lower quartile of the window medians
	PerP50  []float64 // each window's median, in time order
	Tail    float64   // ms: the whole phase's tail quantile
	TailQ   float64   // which quantile: the highest ≤ 0.99 with ten samples beyond it
}

// summarize cuts the sample into the phase's windows and reports the lower
// quartile of the window medians and the whole phase's tail. A quantile that
// lands on a failure reads as failMS, the request deadline a failed request
// is taken to have missed.
func (l *latencies) summarize(from time.Time, d time.Duration, failMS float64) summary {
	k := windows(d)
	per := make([][]float64, k)
	for i, v := range l.ms {
		w := windowOf(l.at[i], from, d, k)
		per[w] = append(per[w], v)
	}
	clip := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return failMS
		}
		return v
	}
	sm := summary{N: len(l.ms), Failed: l.failed}
	for _, s := range per {
		if len(s) == 0 {
			continue
		}
		slices.Sort(s)
		sm.PerP50 = append(sm.PerP50, clip(quantile(s, 0.5)))
	}
	sm.Windows = len(sm.PerP50)
	meds := slices.Clone(sm.PerP50)
	slices.Sort(meds)
	sm.P50 = quantile(meds, 0.25)
	all := slices.Clone(l.ms)
	slices.Sort(all)
	sm.TailQ = tailQuantile(len(all))
	sm.Tail = clip(quantile(all, sm.TailQ))
	return sm
}

// rate is a per-window throughput: the weighted count of successful
// requests completing in each window over the window's length, median over
// windows.
func rate(from time.Time, d time.Duration, parts ...weighted) float64 {
	k := windows(d)
	counts := make([]float64, k)
	for _, p := range parts {
		for i, v := range p.l.ms {
			if !math.IsInf(v, 1) {
				counts[windowOf(p.l.at[i], from, d, k)] += p.w
			}
		}
	}
	for i := range counts {
		counts[i] /= (d / time.Duration(k)).Seconds()
	}
	return median(counts)
}

// weighted is one request kind's contribution to a throughput.
type weighted struct {
	l *latencies
	w float64
}
