package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
)

// smoke shrinks a workload for these tests: a tenth of the corpus and two
// set-ups, same code paths.
func (sp spec) smoke() spec {
	sp.docs = max(200, sp.docs/10)
	sp.reserve = sp.reserve / 4
	sp.pool = sp.pool / 4
	sp.setupReps = 2
	return sp
}

// benchmarkFile is the subset of BENCHMARK.json the smoke tests check
// the output against.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// Each workload, shrunk, runs end to end in both modes, passes its
// correctness gate, and reports exactly the metrics BENCHMARK.json names,
// with the same units.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and loads corpora")
	}
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		sp, ok := lookup(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not know", w.Name)
		}
		if sp.why != w.Why {
			t.Errorf("%s: why differs between BENCHMARK.json and the spec", w.Name)
		}
	}
	var specNames []string
	for _, sp := range specs {
		specNames = append(specNames, sp.name)
	}
	if !slices.Equal(names, specNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark specs %v", names, specNames)
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			var out bytes.Buffer
			res, err := run(&out, sp.smoke(), 11, 2*time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, traced, err)
			}
			if traced {
				checkLayerShares(t, sp.name, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var got, exp []string
			for n, m := range res.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if !slices.Equal(got, exp) {
				t.Fatalf("%s trace=%v: metrics\n%v\nwant\n%v", sp.name, traced, got, exp)
			}
		}
	}
}

var totalRow = regexp.MustCompile(`(?m)^  total\s+([0-9.]+)%$`)

// checkLayerShares requires every layer table of a traced run to account for
// its requests' wall time once: the layer shares sum to 100%.
func checkLayerShares(t *testing.T, workload, out string) {
	t.Helper()
	rows := totalRow.FindAllStringSubmatch(out, -1)
	if len(rows) == 0 {
		t.Fatalf("%s: traced output has no layer table total:\n%s", workload, out)
	}
	for _, r := range rows {
		if v, _ := strconv.ParseFloat(r[1], 64); v < 99 || v > 101 {
			t.Errorf("%s: layer shares sum to %s%%, want 100%%", workload, r[1])
		}
	}
}
