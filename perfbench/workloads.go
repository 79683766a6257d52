package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"mkse/internal/core"
	"mkse/internal/protocol"
	"mkse/internal/trace"
)

// opTimeout bounds every request the benchmark sends on its own
// connections; a request that exceeds it fails, and a failed request's
// latency reads as this bound in a percentile.
const opTimeout = 5 * time.Second

// lateLimit is how far behind schedule an open-loop send may start before
// it counts as failed: it still goes out, but it has missed its slot.
const lateLimit = time.Second

// call is one timed request as the load generator saw it, kept in traced
// phases to line the program's spans up with the wall time they explain.
type call struct {
	kind  string // "read" or "side"
	start time.Time
	dur   time.Duration
	trace trace.TraceID // the request's trace, when the benchmark started it
	late  time.Duration // open loop: send time minus due time, part of dur
}

// phase is one timed stretch of a workload and everything measured in it.
type phase struct {
	traced  bool
	start   time.Time
	elapsed time.Duration

	read, side latencies
	late       latencies // open-loop writer: send time minus due time
	queries    int       // search queries answered (a batch answers sp.batch)
	matches    int       // hits returned over those queries
	mutations  int       // writer requests completed
	userBytes  int64     // payload bytes the writer asked the cloud to store
	calls      []call
	mismatches []string

	before, after snapshot
}

func (ph *phase) mismatch(format string, args ...any) {
	ph.mismatches = append(ph.mismatches, fmt.Sprintf(format, args...))
}

func (ph *phase) record(c call) {
	if ph.traced {
		ph.calls = append(ph.calls, c)
	}
}

// summary reduces one request kind's latencies over the phase's windows.
func (ph *phase) summary(l *latencies) summary {
	return l.summarize(ph.start, ph.elapsed, float64(opTimeout)/float64(time.Millisecond))
}

// queryRate is search queries answered per second, median over windows: a
// batch answers sp.batch, and batch-scan's side requests are single
// searches.
func (ph *phase) queryRate(sp spec) float64 {
	readW, sideW := 1.0, 0.0
	if sp.batch > 0 {
		readW, sideW = float64(sp.batch), 1
	}
	return rate(ph.start, ph.elapsed, weighted{&ph.read, readW}, weighted{&ph.side, sideW})
}

// attempted counts every request the phase sent, failed ones included.
func (ph *phase) attempted() int { return ph.read.n() + ph.side.n() }

// completed counts requests that succeeded.
func (ph *phase) completed() int { return ph.attempted() - ph.failed() }

// failed counts requests that errored, returned wrong output, or (open
// loop) started too late.
func (ph *phase) failed() int { return ph.read.failed + ph.side.failed }

// runPhase drives the workload against s for d and returns what it saw.
func runPhase(s *system, d time.Duration, traced bool, stream int64) (*phase, error) {
	ph := &phase{traced: traced}
	var err error
	if ph.before, err = takeSnapshot(s, true); err != nil {
		return nil, err
	}
	ph.start = time.Now()
	deadline := ph.start.Add(d)
	switch s.sp.name {
	case "search-p2":
		runSearchP2(s, ph, deadline, stream)
	case "batch-scan":
		runBatchScan(s, ph, deadline, stream)
	case "mixed-durable":
		err = runMixed(s, ph, deadline, stream)
	}
	ph.elapsed = time.Since(ph.start)
	if err != nil {
		return nil, err
	}
	if ph.after, err = takeSnapshot(s, false); err != nil {
		return nil, err
	}
	return ph, nil
}

// runSearchP2 is one closed-loop user of the P=2 cluster: a search with two
// keywords per iteration, and on every retrieveEvery-th iteration a
// retrieval of the previous search's top hit instead.
func runSearchP2(s *system, ph *phase, deadline time.Time, stream int64) {
	gen := newQueryGen(s.dict, s.keys, s.seed^stream)
	top := ""
	for i := 0; time.Now().Before(deadline); i++ {
		if i%s.sp.retrieveEvery == s.sp.retrieveEvery-1 && top != "" {
			t0 := time.Now()
			pt, err := s.client.Retrieve(top)
			d := time.Since(t0)
			ph.record(call{kind: "side", start: t0, dur: d})
			switch {
			case err != nil:
				ph.side.fail()
			case !bytes.Equal(pt, s.content[top]):
				ph.mismatch("retrieve %s: plaintext differs from the generated document", top)
				ph.side.fail()
			default:
				ph.side.ok(d)
			}
			continue
		}
		words := gen.next()
		t0 := time.Now()
		ms, err := s.client.Search(words, s.sp.topK)
		d := time.Since(t0)
		ph.record(call{kind: "read", start: t0, dur: d})
		if err != nil {
			ph.read.fail()
			continue
		}
		if msg := s.checkMatches(ms, true); msg != "" {
			ph.mismatch("search %v: %s", words, msg)
			ph.read.fail()
			continue
		}
		ph.read.ok(d)
		ph.queries++
		ph.matches += len(ms)
		top = ms[0].DocID
	}
}

// runBatchScan is one closed-loop user of the single node alternating a
// SearchBatch of sp.batch fresh queries with one single search.
func runBatchScan(s *system, ph *phase, deadline time.Time, stream int64) {
	gen := newQueryGen(s.dict, s.keys, s.seed^stream)
	qs := make([][]string, s.sp.batch)
	for i := 0; time.Now().Before(deadline); i++ {
		if i%2 == 1 {
			words := gen.next()
			t0 := time.Now()
			ms, err := s.client.Search(words, s.sp.topK)
			d := time.Since(t0)
			ph.record(call{kind: "side", start: t0, dur: d})
			if err != nil {
				ph.side.fail()
				continue
			}
			if msg := s.checkMatches(ms, true); msg != "" {
				ph.mismatch("search %v: %s", words, msg)
				ph.side.fail()
				continue
			}
			ph.side.ok(d)
			ph.queries++
			ph.matches += len(ms)
			continue
		}
		for j := range qs {
			qs[j] = gen.next()
		}
		t0 := time.Now()
		res, err := s.client.SearchBatch(qs, s.sp.topK)
		d := time.Since(t0)
		ph.record(call{kind: "read", start: t0, dur: d})
		if err != nil {
			ph.read.fail()
			continue
		}
		bad := ""
		for j, ms := range res {
			if msg := s.checkMatches(ms, true); msg != "" {
				bad = fmt.Sprintf("batch query %d %v: %s", j, qs[j], msg)
				break
			}
		}
		if bad != "" {
			ph.mismatch("%s", bad)
			ph.read.fail()
			continue
		}
		ph.read.ok(d)
		ph.queries += len(qs)
		for _, ms := range res {
			ph.matches += len(ms)
		}
	}
}

// runMixed runs mixed-durable's two load generators side by side: a
// closed-loop searcher replaying the Zipf-skewed query pool, and an
// open-loop writer issuing owner-side mutations at a fixed rate.
func runMixed(s *system, ph *phase, deadline time.Time, stream int64) error {
	sc, err := dialRaw(s.nodes[0].addr)
	if err != nil {
		return err
	}
	defer sc.close()
	wc, err := dialRaw(s.nodes[0].addr)
	if err != nil {
		return err
	}
	defer wc.close()

	var wph phase // the writer's half, merged after both finish
	wph.traced = ph.traced
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.runWriter(wc, &wph, deadline, stream)
	}()

	pick := newZipfPicker(len(s.pool), s.sp.zipfS, s.seed^stream)
	for time.Now().Before(deadline) {
		qi := pick.next()
		ctx, root := s.bench.StartRequest(context.Background(), "bench:search", true)
		t0 := time.Now()
		ms, err := sc.search(ctx, s.pool[qi], s.sp.topK)
		d := time.Since(t0)
		root.End()
		ph.record(call{kind: "read", start: t0, dur: d, trace: root.TraceID()})
		if err != nil {
			ph.read.fail()
			continue
		}
		if msg := s.checkWire(ms); msg != "" {
			ph.mismatch("pool query %d: %s", qi, msg)
			ph.read.fail()
			continue
		}
		ph.read.ok(d)
		ph.queries++
		ph.matches += len(ms)
	}
	wg.Wait()
	ph.side, ph.late = wph.side, wph.late
	ph.mutations, ph.userBytes = wph.mutations, wph.userBytes
	ph.calls = append(ph.calls, wph.calls...)
	ph.mismatches = append(ph.mismatches, wph.mismatches...)
	return nil
}

// writerModel is the writer's view of which documents the cloud stores; it
// is the only mutator, so every acknowledgement's document count must match.
type writerModel struct {
	stored  []int       // document indices currently stored
	pos     map[int]int // document index → position in stored
	reserve []int       // generated documents not currently stored
}

func newWriterModel(loaded, total int) *writerModel {
	m := &writerModel{pos: make(map[int]int, total)}
	for i := 0; i < loaded; i++ {
		m.pos[i] = len(m.stored)
		m.stored = append(m.stored, i)
	}
	for i := loaded; i < total; i++ {
		m.reserve = append(m.reserve, i)
	}
	return m
}

func (m *writerModel) add(i int) {
	m.pos[i] = len(m.stored)
	m.stored = append(m.stored, i)
}

func (m *writerModel) remove(i int) {
	p := m.pos[i]
	last := m.stored[len(m.stored)-1]
	m.stored[p] = last
	m.pos[last] = p
	m.stored = m.stored[:len(m.stored)-1]
	delete(m.pos, i)
}

// runWriter issues one mutation every 1/writerRate seconds until the
// deadline, cycling new upload → delete → re-upload so the corpus size
// stays steady. Each request is timed from when it was due, so a stall
// shows in every request queued behind it.
func (s *system) runWriter(c *rawConn, ph *phase, deadline time.Time, stream int64) {
	rng := rand.New(rand.NewSource(s.seed ^ stream ^ 0x3a7e))
	m := s.model
	interval := time.Duration(float64(time.Second) / s.sp.writerRate)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		late := sent.Sub(due)
		ph.late.ok(late)

		var doc int
		var verb string
		switch k % 3 {
		case 0:
			j := rng.Intn(len(m.reserve))
			doc, verb = m.reserve[j], "upload"
			m.reserve[j] = m.reserve[len(m.reserve)-1]
			m.reserve = m.reserve[:len(m.reserve)-1]
			m.add(doc)
		case 1:
			doc, verb = m.stored[rng.Intn(len(m.stored))], "delete"
			m.remove(doc)
			m.reserve = append(m.reserve, doc)
		default:
			doc, verb = m.stored[rng.Intn(len(m.stored))], "reupload"
		}
		ctx, root := s.bench.StartRequest(context.Background(), "bench:"+verb, true)
		var stored int
		var err error
		if verb == "delete" {
			stored, err = c.delete(ctx, s.ids[doc])
		} else {
			var n int64
			stored, n, err = c.upload(ctx, s.indices[doc], s.encs[doc])
			ph.userBytes += n
		}
		root.End()
		d := time.Since(due)
		ph.record(call{kind: "side", start: due, dur: d, trace: root.TraceID(), late: late})
		switch {
		case err != nil:
			ph.side.fail()
		case stored != len(m.stored):
			ph.mismatch("%s %s: cloud reports %d documents, writer expects %d", verb, s.ids[doc], stored, len(m.stored))
			ph.side.fail()
		case late > lateLimit:
			ph.side.fail()
		default:
			ph.side.ok(d)
		}
		ph.mutations++
	}
}

// rawConn is the benchmark's own framed connection to a cloud daemon, for
// the traffic service.Client has no call for: raw pre-built query vectors
// and owner-side mutations.
type rawConn struct {
	addr string
	raw  net.Conn
	pc   *protocol.Conn
}

func dialRaw(addr string) (*rawConn, error) {
	raw, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	return &rawConn{addr: addr, raw: raw, pc: protocol.NewConn(raw)}, nil
}

func (c *rawConn) close() {
	if c.raw != nil {
		c.raw.Close()
	}
}

// roundtrip sends one request under opTimeout. Under a sampled ctx it opens
// an "rpc" span, propagates it on the wire and grafts the server's echoed
// spans beneath it. A transport failure leaves the stream unframed, so the
// connection is replaced.
func (c *rawConn) roundtrip(ctx context.Context, m *protocol.Message) (*protocol.Message, error) {
	rctx, sp := trace.Start(ctx, "rpc")
	if sp != nil {
		sc := sp.Context()
		m.Trace = &protocol.TraceContextWire{TraceHi: sc.Trace.Hi, TraceLo: sc.Trace.Lo, SpanID: sc.Span, Sampled: true}
	}
	c.raw.SetDeadline(time.Now().Add(opTimeout))
	resp, err := c.pc.Roundtrip(m)
	var remote *protocol.RemoteError
	if err != nil && !errors.As(err, &remote) {
		c.raw.Close()
		if nc, derr := dialRaw(c.addr); derr == nil {
			*c = *nc
		}
	}
	if sp != nil && resp != nil {
		trace.Import(rctx, spansFromWire(sp.TraceID(), resp.Spans))
	}
	sp.End()
	return resp, err
}

func (c *rawConn) search(ctx context.Context, q []byte, topK int) ([]protocol.MatchWire, error) {
	resp, err := c.roundtrip(ctx, &protocol.Message{SearchReq: &protocol.SearchRequest{Query: q, TopK: topK}})
	if err != nil {
		return nil, err
	}
	if resp.SearchResp == nil {
		return nil, fmt.Errorf("search response missing")
	}
	return resp.SearchResp.Matches, nil
}

// upload stores one document and returns the cloud's document count and
// the payload bytes the request carried.
func (c *rawConn) upload(ctx context.Context, si *core.SearchIndex, doc *core.EncryptedDocument) (int, int64, error) {
	req := &protocol.UploadRequest{DocID: si.DocID, Ciphertext: doc.Ciphertext, EncKey: doc.EncKey}
	n := int64(len(si.DocID) + len(doc.Ciphertext) + len(doc.EncKey))
	for _, l := range si.Levels {
		b, err := l.MarshalBinary()
		if err != nil {
			return 0, 0, err
		}
		req.Levels = append(req.Levels, b)
		n += int64(len(b))
	}
	resp, err := c.roundtrip(ctx, &protocol.Message{UploadReq: req})
	if err != nil {
		return 0, n, err
	}
	if resp.UploadResp == nil {
		return 0, n, fmt.Errorf("upload response missing")
	}
	return resp.UploadResp.Stored, n, nil
}

func (c *rawConn) delete(ctx context.Context, id string) (int, error) {
	resp, err := c.roundtrip(ctx, &protocol.Message{DeleteReq: &protocol.DeleteRequest{DocID: id}})
	if err != nil {
		return 0, err
	}
	if resp.DeleteResp == nil {
		return 0, fmt.Errorf("delete response missing")
	}
	return resp.DeleteResp.Stored, nil
}

// spansFromWire rebuilds the spans a server echoed on a response.
func spansFromWire(id trace.TraceID, ws []protocol.SpanWire) []trace.Span {
	out := make([]trace.Span, 0, len(ws))
	for _, w := range ws {
		sp := trace.Span{
			Trace:    trace.TraceID{Hi: w.TraceHi, Lo: w.TraceLo},
			ID:       w.SpanID,
			Parent:   w.ParentID,
			Service:  w.Service,
			Name:     w.Name,
			Start:    time.Unix(0, w.StartUnixNano),
			Duration: time.Duration(w.DurationNanos),
		}
		if sp.Trace == id {
			out = append(out, sp)
		}
	}
	return out
}
