package main

import (
	"testing"
	"time"

	"mkse/internal/trace"
)

// On the critical path a scatter follows only its slowest partition, so the
// per-layer times add up to the root's duration exactly. The topology is the
// one the cluster client records: each server span is parented to its
// partition span, a sibling of the attempt whose round trip covers it.
func TestCriticalPathSumsToRoot(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	sp := func(id, parent uint64, name string, from, to int) trace.Span {
		return trace.Span{ID: id, Parent: parent, Name: name, Start: at(from), Duration: at(to).Sub(at(from))}
	}
	tr := trace.Trace{Spans: []trace.Span{
		sp(1, 0, "client:search", 0, 1000),
		sp(2, 1, "scatter", 50, 900),
		sp(3, 2, "partition", 60, 500),
		sp(4, 3, "attempt", 70, 490),
		sp(5, 3, "server:search", 200, 400),
		sp(6, 5, "scan", 250, 350),
		sp(7, 2, "partition", 60, 880), // the slow one
		sp(8, 7, "attempt", 70, 870),
		sp(9, 7, "server:search", 200, 700),
		sp(10, 9, "scan", 250, 650),
	}}
	tree := newTree(tr)
	acc := map[string]time.Duration{}
	tree.critical(tree.root, acc)
	var sum time.Duration
	for _, d := range acc {
		sum += d
	}
	if sum != time.Millisecond {
		t.Fatalf("critical path sums to %v, want the 1ms root (%v)", sum, acc)
	}
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	want := map[string]time.Duration{
		"service.client":    us(150), // 1000 - scatter's 850
		"cluster.scatter":   us(30),  // 850 - the slow partition's 820
		"cluster.partition": us(20),  // 820 - 800
		"protocol":          us(300), // 800 - 500
		"service.server":    us(100), // 500 - 400
		"core.scan":         us(400),
	}
	for l, d := range want {
		if acc[l] != d {
			t.Errorf("%s = %v, want %v", l, acc[l], d)
		}
	}
	// The attempt's self time is the round trip minus the server span it
	// carried: encode, frame I/O, decode and loopback.
	if got := tree.selfTime(7); got != us(300) {
		t.Errorf("slow attempt self time = %v, want 300µs (800 minus its 500µs server span)", got)
	}
	if got := tree.selfTime(2); got != us(20) {
		t.Errorf("partition self time = %v, want 20µs (440 minus its 420µs attempt)", got)
	}
	// Self time subtracts the union of overlapping children.
	if got := tree.selfTime(0); got != us(150) {
		t.Errorf("root self time = %v, want 150µs", got)
	}
	if got := tree.selfTime(1); got != us(30) {
		t.Errorf("scatter self time = %v, want 30µs (850 minus the partitions' union 60..880)", got)
	}
}
