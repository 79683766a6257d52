package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/protocol"
	"mkse/internal/trace"
)

// layerOf names the layer a span's self time belongs to, after the repo's
// modules. The benchmark's own root spans ("bench:*") are the load
// generator standing in for a client.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client:"):
		return "service.client"
	case strings.HasPrefix(name, "bench:"):
		return "loadgen"
	case name == "scatter":
		return "cluster.scatter"
	case name == "partition" || name == "redial":
		return "cluster.partition"
	case name == "attempt" || name == "rpc":
		return "protocol"
	case strings.HasPrefix(name, "server:"):
		return "service.server"
	case strings.HasPrefix(name, "owner:"):
		return "service.owner"
	case name == "qcache":
		return "qcache"
	case name == "scan":
		return "core.scan"
	case strings.HasPrefix(name, "wal."):
		return "durable." + strings.ReplaceAll(name, ".", "_")
	}
	return "other." + name
}

// residualLayer is the row for wall time no span claims: the load
// generator's timing of a request minus the program's root span.
const residualLayer = "unattributed"

// lateLayer is how long an open-loop request waited past its due time
// before the load generator sent it.
const lateLayer = "loadgen.late"

// tree is one assembled trace with its parent → children index.
type tree struct {
	spans []trace.Span
	kids  map[uint64][]int
	root  int
}

func newTree(tr trace.Trace) *tree {
	t := &tree{spans: tr.Spans, kids: make(map[uint64][]int, len(tr.Spans))}
	ids := make(map[uint64]int, len(tr.Spans))
	for i, sp := range tr.Spans {
		ids[sp.ID] = i
	}
	t.root = -1
	for i, sp := range tr.Spans {
		if _, ok := ids[sp.Parent]; ok && sp.Parent != 0 {
			t.kids[sp.Parent] = append(t.kids[sp.Parent], i)
		} else if t.root < 0 {
			t.root = i
		}
	}
	var parts []uint64
	for id, i := range ids {
		if tr.Spans[i].Name == "partition" {
			parts = append(parts, id)
		}
	}
	for _, id := range parts {
		t.nestUnderAttempts(id)
	}
	return t
}

// nestUnderAttempts moves each server span hanging off a cluster partition
// span under the attempt span whose round trip carried it. The coordinator
// stamps the partition span's ID on the request, so the server's root
// arrives as a sibling of the attempt that covers it; left there, the
// attempt's self time would hold the server's whole time and the critical
// path would count that time twice.
func (t *tree) nestUnderAttempts(part uint64) {
	var attempts, servers, rest []int
	for _, k := range t.kids[part] {
		switch name := t.spans[k].Name; {
		case name == "attempt":
			attempts = append(attempts, k)
		case strings.HasPrefix(name, "server:"):
			servers = append(servers, k)
		default:
			rest = append(rest, k)
		}
	}
	if len(attempts) == 0 || len(servers) == 0 {
		return
	}
	for _, sv := range servers {
		best, most := attempts[0], time.Duration(-1)
		for _, a := range attempts {
			if o := overlap(t.spans[a], t.spans[sv]); o > most {
				best, most = a, o
			}
		}
		t.kids[t.spans[best].ID] = append(t.kids[t.spans[best].ID], sv)
	}
	t.kids[part] = append(rest, attempts...)
}

// overlap is how long two spans ran at the same time.
func overlap(a, b trace.Span) time.Duration {
	lo, hi := a.Start, end(a)
	if b.Start.After(lo) {
		lo = b.Start
	}
	if end(b).Before(hi) {
		hi = end(b)
	}
	return max(0, hi.Sub(lo))
}

func end(sp trace.Span) time.Time { return sp.Start.Add(sp.Duration) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// selfTime is a span's duration minus the union of its children's
// intervals (clipped to the span): the time the span's own layer spent.
func (t *tree) selfTime(i int) time.Duration {
	sp := t.spans[i]
	lo, hi := sp.Start, end(sp)
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range t.kids[sp.ID] {
		a, b := t.spans[k].Start, end(t.spans[k])
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
	covered := time.Duration(0)
	var curA, curB time.Time
	for j, v := range ivs {
		if j == 0 || v.a.After(curB) {
			if j > 0 {
				covered += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
		} else if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return max(0, sp.Duration-covered)
}

// critical attributes a request's time along its blocking path: each span
// contributes its self time, and under a scatter only the partition that
// finished last is followed (its siblings ran in parallel and did not hold
// the result up). The per-layer times then sum to the root's duration.
func (t *tree) critical(i int, acc map[string]time.Duration) {
	sp := t.spans[i]
	kids := t.kids[sp.ID]
	if sp.Name == "scatter" && len(kids) > 0 {
		crit := kids[0]
		for _, k := range kids[1:] {
			if end(t.spans[k]).After(end(t.spans[crit])) {
				crit = k
			}
		}
		acc[layerOf(sp.Name)] += max(0, sp.Duration-t.spans[crit].Duration)
		t.critical(crit, acc)
		return
	}
	acc[layerOf(sp.Name)] += t.selfTime(i)
	for _, k := range kids {
		t.critical(k, acc)
	}
}

// spanStats gathers, over many traces, every span's self time by span
// name, plus scatter skew — the per-span distributions behind the layer
// metrics.
type spanStats struct {
	self map[string][]float64 // span name → self times in µs
	dur  map[string][]float64 // span name → durations in µs
	skew []float64            // slowest minus fastest partition per scatter, µs
}

func newSpanStats() *spanStats {
	return &spanStats{self: map[string][]float64{}, dur: map[string][]float64{}}
}

func (st *spanStats) add(t *tree) {
	for i, sp := range t.spans {
		st.self[sp.Name] = append(st.self[sp.Name], us(t.selfTime(i)))
		st.dur[sp.Name] = append(st.dur[sp.Name], us(sp.Duration))
		if sp.Name == "scatter" && len(t.kids[sp.ID]) > 1 {
			lo, hi := time.Duration(1<<62), time.Duration(0)
			for _, k := range t.kids[sp.ID] {
				d := t.spans[k].Duration
				lo, hi = min(lo, d), max(hi, d)
			}
			st.skew = append(st.skew, us(hi-lo))
		}
	}
}

// selfOf pools the self times of every span whose name passes keep.
func (st *spanStats) selfOf(keep func(string) bool) []float64 {
	var out []float64
	for name, v := range st.self {
		if keep(name) {
			out = append(out, v...)
		}
	}
	return out
}

// layerRow is one line of the traced-run layer table.
type layerRow struct {
	layer     string
	p50, p99  float64 // µs per request on the critical path
	total     time.Duration
	requests  int
	shareBase time.Duration // summed wall time of the requests
}

// opTrace is the critical-path breakdown of one request kind.
type opTrace struct {
	kind     string
	requests int // timed requests of this kind
	matched  int // of those, with an assembled program trace
	rows     []layerRow
	resid    []float64 // µs per request no span claims
	wall     time.Duration
}

// share is the summed time of every layer row over the requests' wall
// time: 1 when the critical paths account for each request exactly once.
func (op *opTrace) share() float64 {
	var sum time.Duration
	for _, r := range op.rows {
		sum += r.total
	}
	return float64(sum) / float64(max(1, op.wall))
}

// traceReport is everything the traced phase yields.
type traceReport struct {
	ops       []*opTrace
	spans     map[string]*spanStats // request kind → span distributions
	alone     map[string][]float64  // standalone traces (fetch, blind decrypt, trapdoor, checkpoint) by root name, µs
	aloneKids map[string][]float64  // their named children (and checkpoint.write, a checkpoint minus its pause), µs
}

// inPhase keeps the traces whose root started inside the phase.
func inPhase(buf *trace.Buffer, from, to time.Time) []trace.Trace {
	var out []trace.Trace
	for _, tr := range buf.Recent(0) {
		if r := tr.Root(); r != nil && !r.Start.Before(from) && r.Start.Before(to) {
			out = append(out, tr)
		}
	}
	return out
}

// analyse matches each timed request of the traced phase to the program
// trace it produced and breaks its wall time down by layer.
func analyse(s *system, ph *phase) *traceReport {
	to := ph.start.Add(ph.elapsed)
	progBuf := s.clientBuf
	if s.sp.pool > 0 {
		progBuf = s.benchBuf
	}
	progTraces := inPhase(progBuf, ph.start, to)
	sort.Slice(progTraces, func(i, j int) bool { return progTraces[i].Root().Start.Before(progTraces[j].Root().Start) })

	rep := &traceReport{spans: map[string]*spanStats{}, alone: map[string][]float64{}, aloneKids: map[string][]float64{}}
	byKind := map[string]*opTrace{}
	accs := map[string][]map[string]time.Duration{}
	for _, kind := range []string{"read", "side"} {
		byKind[kind] = &opTrace{kind: kind}
		rep.spans[kind] = newSpanStats()
	}
	// Standalone traces: requests the client sends without a trace context
	// (fetch, blind decrypt, trapdoor) and background checkpoints.
	var standalone []trace.Span
	for _, buf := range []*trace.Buffer{s.cloudBuf, s.ownerBuf} {
		for _, tr := range inPhase(buf, ph.start, to) {
			t := newTree(tr)
			root := t.spans[t.root]
			if root.Parent != 0 {
				continue // a server subtree of a client trace, counted below
			}
			rep.alone[root.Name] = append(rep.alone[root.Name], us(root.Duration))
			for _, k := range t.kids[root.ID] {
				kid := t.spans[k]
				rep.aloneKids[kid.Name] = append(rep.aloneKids[kid.Name], us(kid.Duration))
				if kid.Name == "checkpoint.pause" {
					// The rest of a checkpoint serializes while mutations run.
					rep.aloneKids["checkpoint.write"] = append(rep.aloneKids["checkpoint.write"], us(root.Duration-kid.Duration))
				}
			}
			if root.Name != "durable.checkpoint" {
				standalone = append(standalone, root)
			}
		}
	}
	sort.Slice(standalone, func(i, j int) bool { return standalone[i].Start.Before(standalone[j].Start) })

	calls := slices.Clone(ph.calls)
	sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })
	used := make([]bool, len(progTraces))
	byID := make(map[trace.TraceID]int, len(progTraces))
	for i, tr := range progTraces {
		byID[tr.ID] = i
	}
	j := 0
	for _, c := range calls {
		op := byKind[c.kind]
		op.requests++
		op.wall += c.dur
		// A request the benchmark traced itself is found by its ID; a
		// client call (one at a time) by the root that opened inside it.
		k := -1
		if !c.trace.IsZero() {
			if x, ok := byID[c.trace]; ok {
				k = x
			}
		} else {
			cend := c.start.Add(c.dur)
			for j < len(progTraces) && progTraces[j].Root().Start.Before(c.start) {
				j++
			}
			for x := j; x < len(progTraces) && !progTraces[x].Root().Start.After(cend); x++ {
				if !used[x] {
					k = x
					break
				}
			}
		}
		acc := map[string]time.Duration{}
		if k >= 0 {
			used[k] = true
			t := newTree(progTraces[k])
			t.critical(t.root, acc)
			rep.spans[c.kind].add(t)
			if c.late > 0 {
				acc[lateLayer] = c.late
			}
			acc[residualLayer] = max(0, c.dur-c.late-t.spans[t.root].Duration)
			op.matched++
		} else {
			// No trace of its own (a retrieval): credit the standalone
			// requests it made, and leave the rest unattributed.
			claimed := time.Duration(0)
			cend := c.start.Add(c.dur)
			for _, sp := range standalone {
				if !sp.Start.Before(c.start) && !end(sp).After(cend) {
					acc[layerOf(sp.Name)] += sp.Duration
					claimed += sp.Duration
				}
			}
			if claimed > 0 {
				op.matched++
			}
			acc[residualLayer] = max(0, c.dur-claimed)
		}
		accs[c.kind] = append(accs[c.kind], acc)
	}
	for _, kind := range []string{"read", "side"} {
		op := byKind[kind]
		if op.requests == 0 {
			continue
		}
		names := map[string]bool{}
		for _, acc := range accs[kind] {
			for l := range acc {
				names[l] = true
			}
		}
		for l := range names {
			row := layerRow{layer: l, requests: op.requests, shareBase: op.wall}
			v := make([]float64, 0, len(accs[kind]))
			for _, acc := range accs[kind] {
				v = append(v, us(acc[l]))
				row.total += acc[l]
			}
			slices.Sort(v)
			row.p50, row.p99 = quantile(v, 0.5), quantile(v, tailQuantile(len(v)))
			if l == residualLayer {
				op.resid = v
			}
			op.rows = append(op.rows, row)
		}
		sort.Slice(op.rows, func(a, b int) bool { return op.rows[a].total > op.rows[b].total })
		rep.ops = append(rep.ops, op)
	}

	return rep
}

// codecStats is the replay of captured messages through protocol.Conn.
type codecStats struct {
	reqEnc, reqDec, respEnc, respDec float64 // µs, medians over the captured messages
	reqBytes, respBytes              float64 // frame bytes, medians
	allocs                           float64 // allocations per request+response exchange
	messages                         int
}

// replayCodec pushes each captured request/response pair through
// protocol.NewConn(...).Send/Recv on an in-memory stream, timing the encode
// and decode halves separately and counting allocations per exchange.
func replayCodec(pairs [][2]*protocol.Message) (codecStats, error) {
	const rounds = 20
	var st codecStats
	if len(pairs) == 0 {
		return st, nil
	}
	var reqEnc, reqDec, respEnc, respDec, reqB, respB []float64
	var buf bytes.Buffer
	conn := protocol.NewConn(&buf)
	timed := func(m *protocol.Message) (enc, dec float64, n int, err error) {
		buf.Reset()
		t0 := time.Now()
		if err = conn.Send(m); err != nil {
			return
		}
		enc = us(time.Since(t0))
		n = buf.Len()
		t0 = time.Now()
		if _, err = conn.Recv(); err != nil {
			return
		}
		dec = us(time.Since(t0))
		return
	}
	for r := 0; r < rounds; r++ {
		for _, p := range pairs {
			e, d, n, err := timed(p[0])
			if err != nil {
				return st, err
			}
			reqEnc, reqDec, reqB = append(reqEnc, e), append(reqDec, d), append(reqB, float64(n))
			e, d, n, err = timed(p[1])
			if err != nil {
				return st, err
			}
			respEnc, respDec, respB = append(respEnc, e), append(respDec, d), append(respB, float64(n))
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range pairs {
		for _, m := range p {
			buf.Reset()
			if err := conn.Send(m); err != nil {
				return st, err
			}
			if _, err := conn.Recv(); err != nil {
				return st, err
			}
		}
	}
	runtime.ReadMemStats(&m1)
	st.reqEnc, st.reqDec = median(reqEnc), median(reqDec)
	st.respEnc, st.respDec = median(respEnc), median(respDec)
	st.reqBytes, st.respBytes = median(reqB), median(respB)
	st.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(pairs))
	st.messages = len(pairs)
	return st, nil
}

// capture rebuilds a sample of the workload's main read exchange in
// process — the request the load generator sends and the response the
// first cloud node returns — plus, on the cluster, every partition's
// result list for the merge replay.
func capture(s *system) (pairs [][2]*protocol.Message, lists [][][]protocol.MatchWire, err error) {
	svc := s.nodes[0].svc
	u := s.client.User()
	gen := newQueryGen(s.dict, s.keys, s.seed^0xca97)
	marshal := func(words []string) ([]byte, error) {
		q, err := u.BuildQuery(words)
		if err != nil {
			return nil, err
		}
		return q.MarshalBinary()
	}
	for i := 0; i < 16; i++ {
		switch {
		case s.sp.batch > 0:
			if i >= 4 {
				return pairs, lists, nil
			}
			req := &protocol.SearchBatchRequest{TopK: s.sp.topK}
			for j := 0; j < s.sp.batch; j++ {
				raw, err := marshal(gen.next())
				if err != nil {
					return nil, nil, err
				}
				req.Queries = append(req.Queries, raw)
			}
			resp, err := svc.SearchBatchWire(req)
			if err != nil {
				return nil, nil, err
			}
			pairs = append(pairs, [2]*protocol.Message{{SearchBatchReq: req}, {SearchBatchResp: resp}})
		default:
			var raw []byte
			if s.sp.pool > 0 {
				raw = s.pool[i%len(s.pool)]
			} else if raw, err = marshal(gen.next()); err != nil {
				return nil, nil, err
			}
			req := &protocol.SearchRequest{Query: raw, TopK: s.sp.topK}
			var per [][]protocol.MatchWire
			for _, n := range s.nodes {
				resp, err := n.svc.SearchWire(req)
				if err != nil {
					return nil, nil, err
				}
				per = append(per, resp.Matches)
			}
			pairs = append(pairs, [2]*protocol.Message{{SearchReq: req}, {SearchResp: &protocol.SearchResponse{Matches: per[0]}}})
			lists = append(lists, per)
		}
	}
	return pairs, lists, nil
}

// mergeMicros times cluster.MergeWire on the captured per-partition lists.
func mergeMicros(lists [][][]protocol.MatchWire, tau int) float64 {
	if len(lists) == 0 {
		return 0
	}
	const rounds = 200
	var v []float64
	for _, l := range lists {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			_ = cluster.MergeWire(l, tau)
		}
		v = append(v, us(time.Since(t0))/rounds)
	}
	return median(v)
}

// writeLayerTable prints the traced phase's per-kind critical-path
// breakdown: per-request self time by layer, the share of the summed wall
// time each layer holds (base stated), and the residual no layer claims.
func writeLayerTable(w io.Writer, rep *traceReport, kinds map[string]string) {
	for _, op := range rep.ops {
		fmt.Fprintf(w, "layer table — %s (%s): %d timed requests, %d with an assembled trace, critical path\n",
			op.kind, kinds[op.kind], op.requests, op.matched)
		fmt.Fprintf(w, "  %-22s %12s %12s %9s  %s\n", "layer", "p50_us", "p99_us", "share", "base")
		for _, r := range op.rows {
			fmt.Fprintf(w, "  %-22s %12.2f %12.2f %8.2f%%  of %.1f ms wall over %d requests\n",
				r.layer, r.p50, r.p99, 100*float64(r.total)/float64(max(1, r.shareBase)),
				float64(r.shareBase)/1e6, r.requests)
		}
		fmt.Fprintf(w, "  %-22s %12s %12s %8.2f%%\n", "total", "", "", 100*op.share())
	}
	names := make([]string, 0, len(rep.alone))
	for n := range rep.alone {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "standalone traces (no propagated context)\n")
	}
	for _, n := range names {
		v := rep.alone[n]
		s := slices.Clone(v)
		slices.Sort(s)
		fmt.Fprintf(w, "  %-22s n=%-6d p50 %10.2f us  p99 %10.2f us\n", n, len(v), quantile(s, 0.5), quantile(s, tailQuantile(len(s))))
	}
}
