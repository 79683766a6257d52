package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// run performs one benchmark run: sp.setupReps set-ups (setup_s is their
// median), the timed load on the last one — or, traced, an untraced half on
// the second-to-last and a traced half on the last — and the correctness
// gate after every timed phase.
func run(w io.Writer, sp spec, seed int64, d time.Duration, traced bool, dataRoot string) (*result, error) {
	writeMeta(w, sp, seed, d, traced)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setups []setupTimes
	var plain, tph *phase
	var plainSys setupFacts
	var tr *tracedFacts
	for r := 0; r < sp.setupReps; r++ {
		last := r == sp.setupReps-1
		withTrace := traced && last
		measure := last || (traced && r == sp.setupReps-2)
		s, err := startSystem(sp, seed, withTrace, dataRoot)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", r+1, err)
		}
		setups = append(setups, s.times)
		if !measure {
			s.close()
			continue
		}
		dur := d
		if traced {
			dur = d / 2
		}
		ph, err := runPhase(s, dur, withTrace, int64(r+1)*0x1000193)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("timed phase: %w", err)
		}
		checked, bad, err := s.verify()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("correctness gate: %w", err)
		}
		res.Attempted += ph.attempted() + checked
		res.Failed += ph.failed() + len(bad)
		for _, m := range append(ph.mismatches, bad...) {
			res.Correct = false
			fmt.Fprintf(w, "MISMATCH %s\n", m)
		}
		if withTrace {
			tph = ph
			if tr, err = collectTraced(s, ph); err != nil {
				s.close()
				return nil, err
			}
		} else {
			plain, plainSys = ph, factsOf(s)
		}
		s.close()
	}

	e2e := endToEnd(setups, plain, plainSys)
	writeEndToEnd(w, sp, e2e, plain, setups, traced)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	layers, bases, only := perLayer(sp, setups, plain, tph, plainSys, tr)
	writeLayerTable(w, tr.rep, sideNames(sp))
	writeLayerMetrics(w, layers, bases, only)
	for name, m := range layers {
		res.Metrics[name] = m
	}
	return res, nil
}

// setupFacts are the system measurements the metrics need after it closed.
type setupFacts struct {
	heapStores   uint64
	docsPerNode  int
	buildQueryUS []float64
}

func factsOf(s *system) setupFacts {
	return setupFacts{
		heapStores:   s.heapStores,
		docsPerNode:  s.sp.docs / len(s.nodes),
		buildQueryUS: s.buildQueryUS,
	}
}

// tracedFacts is what the traced phase yields beyond its phase record.
type tracedFacts struct {
	rep   *traceReport
	codec codecStats
	merge float64 // µs per cluster.MergeWire of the captured lists (cluster only)
	facts setupFacts
}

func collectTraced(s *system, ph *phase) (*tracedFacts, error) {
	tf := &tracedFacts{rep: analyse(s, ph), facts: factsOf(s)}
	pairs, lists, err := capture(s)
	if err != nil {
		return nil, fmt.Errorf("capturing messages: %w", err)
	}
	if tf.codec, err = replayCodec(pairs); err != nil {
		return nil, fmt.Errorf("replaying messages: %w", err)
	}
	if s.sp.partitions > 1 {
		tf.merge = mergeMicros(lists, s.sp.topK)
	}
	return tf, nil
}

func sideNames(sp spec) map[string]string {
	switch {
	case sp.retrieveEvery > 0:
		return map[string]string{"read": "Client.Search", "side": "Client.Retrieve"}
	case sp.batch > 0:
		return map[string]string{"read": "Client.SearchBatch", "side": "Client.Search"}
	}
	return map[string]string{"read": "pool search", "side": "mutation"}
}

// medianSetup is the median over set-ups of one stage (or the total), in
// seconds.
func medianSetup(setups []setupTimes, f func(setupTimes) time.Duration) float64 {
	v := make([]float64, len(setups))
	for i, t := range setups {
		v[i] = f(t).Seconds()
	}
	return median(v)
}

func corpusStage(t setupTimes) time.Duration { return t.corpus }
func buildStage(t setupTimes) time.Duration  { return t.build }
func loadStage(t setupTimes) time.Duration   { return t.load }
func enrollStage(t setupTimes) time.Duration { return t.enroll }

// endToEnd computes the metrics a user of the system sees, from the
// untraced phase.
func endToEnd(setups []setupTimes, ph *phase, f setupFacts) map[string]metric {
	rd, sd := ph.summary(&ph.read), ph.summary(&ph.side)
	return map[string]metric{
		"setup_s":           {medianSetup(setups, setupTimes.total), "s"},
		"read_p50_ms":       {rd.P50, "ms"},
		"side_p50_ms":       {sd.P50, "ms"},
		"heap_mb":           {float64(f.heapStores) / (1 << 20), "MB"},
		"wire_bytes_per_op": {float64(ph.after.wire-ph.before.wire) / float64(max(1, ph.completed())), "B/op"},
	}
}

func writeEndToEnd(w io.Writer, sp spec, m map[string]metric, ph *phase, setups []setupTimes, traced bool) {
	names := sideNames(sp)
	rd, sd := ph.summary(&ph.read), ph.summary(&ph.side)
	label := "end-to-end (untraced"
	if traced {
		label += ", first half of a traced run"
	}
	fmt.Fprintf(w, "%s, %.1fs timed)\n", label, ph.elapsed.Seconds())
	fmt.Fprintf(w, "  %-18s %12.4f %-5s median of %d set-ups (corpus %.3fs, build index %.3fs, load %.3fs, enroll+warm %.3fs)\n",
		"setup_s", m["setup_s"].Value, "s", len(setups),
		medianSetup(setups, corpusStage), medianSetup(setups, buildStage),
		medianSetup(setups, loadStage), medianSetup(setups, enrollStage))
	fmt.Fprintf(w, "  latency: each *_p50_ms is the lower quartile of the medians of the %v windows, not the phase's p50\n", window)
	for _, k := range []struct {
		name string
		sm   summary
	}{{"read", rd}, {"side", sd}} {
		fmt.Fprintf(w, "  %-18s %12.4f %-5s %s, lower quartile of %d window medians, n=%d, failed=%d\n", k.name+"_p50_ms", k.sm.P50, "ms",
			names[k.name], k.sm.Windows, k.sm.N, k.sm.Failed)
		fmt.Fprintf(w, "  %-18s %12s %-5s %s\n", "", "", "", windowList("window medians:", k.sm.PerP50))
		fmt.Fprintf(w, "  %-18s %12.4f %-5s whole phase p%.2f, %d samples beyond it (printed only)\n", "", k.sm.Tail, "ms",
			100*k.sm.TailQ, k.sm.N-int(math.Ceil(k.sm.TailQ*float64(k.sm.N))))
	}
	fmt.Fprintf(w, "  %-18s %12.4f %-5s median over windows, %d queries answered (printed only)\n", "queries_s", ph.queryRate(sp), "1/s", ph.queries)
	fmt.Fprintf(w, "  %-18s %12.4f %-5s live heap the daemons added by the end of load (forced GC before and after)\n", "heap_mb", m["heap_mb"].Value, "MB")
	fmt.Fprintf(w, "  %-18s %12.1f %-5s %d bytes on every daemon listener over %d completed requests\n", "wire_bytes_per_op",
		m["wire_bytes_per_op"].Value, "B/op", ph.after.wire-ph.before.wire, ph.completed())
	fmt.Fprintf(w, "  %-18s %12.6f %-5s %d of %d requests failed\n", "failed_ops_frac",
		float64(ph.failed())/float64(max(1, ph.attempted())), "", ph.failed(), ph.attempted())
}

// perLayer computes the per-layer metrics — span-derived ones from the
// traced phase, runtime counters from the untraced phase — with the base
// each ratio is taken over, and the workload-specific layer metrics that
// are printed only.
func perLayer(sp spec, setups []setupTimes, plain, tph *phase, pf setupFacts, tr *tracedFacts) (m map[string]metric, bases, only map[string]string) {
	rep := tr.rep
	read := rep.spans["read"]
	isRPC := func(n string) bool { return n == "rpc" || n == "attempt" }
	isRoot := func(n string) bool { return strings.HasPrefix(n, "client:") || n == "bench:search" }
	isServer := func(n string) bool { return strings.HasPrefix(n, "server:") }

	scanUS := median(read.dur["scan"])
	perScan := 1
	if sp.batch > 0 {
		perScan = sp.batch
	}
	scanned := tph.queries
	if sp.cacheMB > 0 {
		scanned = int(tph.after.cache.Misses - tph.before.cache.Misses)
	}
	cacheHits := float64(tph.after.cache.Hits - tph.before.cache.Hits)
	cacheLookups := cacheHits + float64(tph.after.cache.Misses-tph.before.cache.Misses)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var resid, wall float64
	for _, op := range rep.ops {
		for _, v := range op.resid {
			resid += v
		}
		wall += us(op.wall)
	}
	ops := float64(max(1, plain.attempted()))
	m = map[string]metric{
		"protocol.rpc_unattributed_us": {median(read.selfOf(isRPC)), "us"},
		"protocol.req_encode_us":       {tr.codec.reqEnc, "us"},
		"protocol.req_decode_us":       {tr.codec.reqDec, "us"},
		"protocol.resp_encode_us":      {tr.codec.respEnc, "us"},
		"protocol.resp_decode_us":      {tr.codec.respDec, "us"},
		"protocol.req_bytes":           {tr.codec.reqBytes, "B"},
		"protocol.resp_bytes":          {tr.codec.respBytes, "B"},
		"protocol.allocs_per_exchange": {tr.codec.allocs, "count"},
		"service.client_self_us":       {median(read.selfOf(isRoot)), "us"},
		"service.server_dispatch_us":   {median(read.selfOf(isServer)), "us"},
		"service.trapdoor_fetches":     {float64(len(rep.alone["owner:trapdoor"])), "count"},
		"core.scan_us":                 {scanUS, "us"},
		"core.scan_ns_per_doc":         {scanUS * 1e3 / float64(max(1, tr.facts.docsPerNode*perScan)), "ns"},
		"core.comparisons_per_query":   {ratio(float64(tph.after.comparisons-tph.before.comparisons), float64(scanned)), "count"},
		"core.matches_per_query":       {ratio(float64(tph.matches), float64(tph.queries)), "count"},
		"core.build_query_us":          {median(tr.facts.buildQueryUS), "us"},
		"core.heap_bytes_per_doc":      {float64(pf.heapStores) / float64(sp.docs), "B"},
		"qcache.hit_ratio":             {ratio(cacheHits, cacheLookups), "ratio"},
		"qcache.invalidations_per_mutation": {ratio(float64(tph.after.cache.Invalidations-tph.before.cache.Invalidations),
			float64(tph.mutations)), "ratio"},
		"qcache.evictions":                {float64(tph.after.cache.Evictions - tph.before.cache.Evictions), "count"},
		"durable.wal_bytes_per_user_byte": {ratio(float64(tph.after.eng.WALBytes-tph.before.eng.WALBytes), float64(tph.userBytes)), "ratio"},
		"durable.checkpoints":             {float64(tph.after.eng.Checkpoints - tph.before.eng.Checkpoints), "count"},
		"runtime.gc_cpu_frac": {ratio(plain.after.gcCPU-plain.before.gcCPU,
			(plain.after.totalCPU-plain.before.totalCPU)-(plain.after.idleCPU-plain.before.idleCPU)), "ratio"},
		"runtime.allocs_per_op":      {float64(plain.after.allocObjs-plain.before.allocObjs) / ops, "count"},
		"runtime.alloc_bytes_per_op": {float64(plain.after.allocBytes-plain.before.allocBytes) / ops, "B"},
		"trace.overhead_frac":        {ratio(tph.summary(&tph.read).P50, plain.summary(&plain.read).P50) - 1, "ratio"},
		"trace.unattributed_frac":    {ratio(resid, wall), "ratio"},
		"setup.corpus_s":             {medianSetup(setups, corpusStage), "s"},
		"setup.build_index_s":        {medianSetup(setups, buildStage), "s"},
		"setup.load_s":               {medianSetup(setups, loadStage), "s"},
		"setup.enroll_warm_s":        {medianSetup(setups, enrollStage), "s"},
	}

	bases = map[string]string{
		"core.comparisons_per_query":        fmt.Sprintf("%d comparisons over %d scanned queries", tph.after.comparisons-tph.before.comparisons, scanned),
		"core.matches_per_query":            fmt.Sprintf("%d hits over %d answered queries", tph.matches, tph.queries),
		"qcache.hit_ratio":                  fmt.Sprintf("%.0f hits over %.0f lookups", cacheHits, cacheLookups),
		"qcache.invalidations_per_mutation": fmt.Sprintf("%d invalidations over %d mutations", tph.after.cache.Invalidations-tph.before.cache.Invalidations, tph.mutations),
		"durable.wal_bytes_per_user_byte":   fmt.Sprintf("%d WAL bytes over %d payload bytes", tph.after.eng.WALBytes-tph.before.eng.WALBytes, tph.userBytes),
		"trace.overhead_frac": fmt.Sprintf("traced read p50 %.4f ms vs untraced %.4f ms (separate set-ups)",
			tph.summary(&tph.read).P50, plain.summary(&plain.read).P50),
		"trace.unattributed_frac": fmt.Sprintf("%.1f ms unclaimed over %.1f ms of timed requests", resid/1e3, wall/1e3),
		"runtime.allocs_per_op":   fmt.Sprintf("over %d untraced requests", plain.attempted()),
		"protocol.allocs_per_exchange": fmt.Sprintf("over %d captured request/response pairs sent and received once each",
			tr.codec.messages),
	}

	// Layer metrics that exist only on some workloads' request paths. They
	// are printed, not put in the result line: on the other workloads the
	// layer does no work and there is nothing to measure.
	only = map[string]string{}
	show := func(name string, v []float64, unit string, scale float64) {
		if len(v) == 0 {
			only[name] = "n/a (not on this workload's path)"
			return
		}
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		only[name] = fmt.Sprintf("%.2f %s (p50 of %d; p%.1f %.2f)", quantile(s, 0.5)*scale, unit, len(s),
			100*tailQuantile(len(s)), quantile(s, tailQuantile(len(s)))*scale)
	}
	show("cluster.scatter_self_us", read.self["scatter"], "us", 1)
	show("cluster.partition_skew_us", read.skew, "us", 1)
	if tr.merge > 0 {
		only["cluster.merge_us"] = fmt.Sprintf("%.3f us (MergeWire of the captured partition lists, τ=%d)", tr.merge, sp.topK)
	} else {
		only["cluster.merge_us"] = "n/a (single node)"
	}
	show("service.fetch_us", rep.alone["server:fetch"], "us", 1)
	show("core.owner_blind_decrypt_us", rep.alone["owner:blinddecrypt"], "us", 1)
	side := rep.spans["side"]
	var apply []float64
	if sp.durable {
		apply = side.selfOf(isServer)
	}
	show("core.apply_mutation_us", apply, "us", 1)
	var lookups []float64
	for _, k := range []string{"read", "side"} {
		lookups = append(lookups, rep.spans[k].dur["qcache"]...)
	}
	show("qcache.lookup_us", lookups, "us", 1)
	show("durable.wal_append_us", side.dur["wal.append"], "us", 1)
	if n := tph.after.fsyncs - tph.before.fsyncs; n > 0 {
		only["durable.wal_fsync_us"] = fmt.Sprintf("%.2f us (mean of %d interval fsyncs)",
			us(tph.after.fsyncTime-tph.before.fsyncTime)/float64(n), n)
	} else {
		show("durable.wal_fsync_us", nil, "", 1)
	}
	show("durable.checkpoint_pause_ms", rep.aloneKids["checkpoint.pause"], "ms", 1e-3)
	show("durable.checkpoint_write_ms", rep.aloneKids["checkpoint.write"], "ms", 1e-3)
	show("loadgen.writer_late_ms", tph.late.ms, "ms", 1)
	return m, bases, only
}

func writeLayerMetrics(w io.Writer, m map[string]metric, bases, only map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "per-layer metrics\n")
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s %s\n", n, m[n].Value, m[n].Unit, bases[n])
	}
	names = names[:0]
	for n := range only {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload-specific layer metrics (printed only)\n")
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %s\n", n, only[n])
	}
}

func windowList(label string, v []float64) string {
	parts := []string{label}
	for _, x := range v {
		parts = append(parts, fmt.Sprintf("%.3f", x))
	}
	return strings.Join(parts, " ")
}
