package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"slices"

	"mkse/internal/bitindex"
	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/protocol"
	"mkse/internal/service"
)

// checkMatches validates one search result the client returned: at most τ
// hits, at least one when the query was drawn from a stored document, every
// document known, ranks within the η levels and in (rank desc, docID asc)
// order.
func (s *system) checkMatches(ms []service.Match, wantHit bool) string {
	if len(ms) > s.sp.topK {
		return fmt.Sprintf("%d matches exceed τ=%d", len(ms), s.sp.topK)
	}
	if wantHit && len(ms) == 0 {
		return "no match, but the query's source document holds every keyword"
	}
	eta := s.owner.Params().Eta()
	for i, m := range ms {
		if !s.known[m.DocID] {
			return fmt.Sprintf("unknown document %q", m.DocID)
		}
		if m.Rank < 1 || m.Rank > eta {
			return fmt.Sprintf("rank %d outside 1..%d", m.Rank, eta)
		}
		if i > 0 && (ms[i-1].Rank < m.Rank || ms[i-1].Rank == m.Rank && ms[i-1].DocID >= m.DocID) {
			return fmt.Sprintf("matches %d and %d out of (rank desc, docID asc) order", i-1, i)
		}
	}
	return ""
}

// checkWire validates a wire-level result the same way.
func (s *system) checkWire(ms []protocol.MatchWire) string {
	out := make([]service.Match, len(ms))
	for i, m := range ms {
		out[i] = service.Match{DocID: m.DocID, Rank: m.Rank}
	}
	return s.checkMatches(out, false)
}

// sameMatches compares a client result with a core result by (docID, rank).
func sameMatches(got []service.Match, want []core.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].DocID != want[i].DocID || got[i].Rank != want[i].Rank {
			return false
		}
	}
	return true
}

// gobEqual compares two values by their gob encoding: the exact bytes a
// daemon would send, so metadata and nil-versus-empty differences count.
func gobEqual(a, b any) bool {
	var ab, bb bytes.Buffer
	if gob.NewEncoder(&ab).Encode(a) != nil || gob.NewEncoder(&bb).Encode(b) != nil {
		return false
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}

// checkSamples is the number of seeded queries each post-run check replays.
const checkSamples = 24

// verify runs the workload's post-run correctness gate against the
// quiesced system and returns how many results it checked and every
// mismatch found.
func (s *system) verify() (int, []string, error) {
	switch s.sp.name {
	case "search-p2":
		return s.verifyCluster()
	case "batch-scan":
		return s.verifyBatch()
	default:
		return s.verifyDurable()
	}
}

// verifyCluster rebuilds seeded queries with the client's own query RNG and
// checks the P=2 merged results against one reference server holding the
// whole corpus: through the client, and at the wire level (per-partition
// scans merged under the global τ-cut, metadata included) for τ ∈ {0, 1, τ}.
func (s *system) verifyCluster() (int, []string, error) {
	ref, err := core.NewServer(s.owner.Params())
	if err != nil {
		return 0, nil, err
	}
	for i := 0; i < s.sp.docs; i++ {
		if err := ref.Upload(s.indices[i], s.encs[i]); err != nil {
			return 0, nil, err
		}
	}
	refSvc := &service.CloudService{Server: ref}
	u := s.client.User()
	gen := newQueryGen(s.dict, s.keys, s.seed^0xc4ec)
	var bad []string
	for i := 0; i < checkSamples; i++ {
		words := gen.next()
		rs := s.seed*1000 + int64(i)
		u.SeedQueryRNG(rs)
		got, err := s.client.Search(words, s.sp.topK)
		if err != nil {
			return 0, nil, err
		}
		u.SeedQueryRNG(rs)
		q, err := u.BuildQuery(words)
		if err != nil {
			return 0, nil, err
		}
		want, err := ref.SearchTop(q, s.sp.topK)
		if err != nil {
			return 0, nil, err
		}
		if !sameMatches(got, want) {
			bad = append(bad, fmt.Sprintf("cluster search %v differs from the single-node reference", words))
		}
		raw, err := q.MarshalBinary()
		if err != nil {
			return 0, nil, err
		}
		for _, tau := range []int{0, 1, s.sp.topK} {
			req := &protocol.SearchRequest{Query: raw, TopK: tau}
			want, err := refSvc.SearchWire(req)
			if err != nil {
				return 0, nil, err
			}
			lists := make([][]protocol.MatchWire, len(s.nodes))
			for pi, n := range s.nodes {
				resp, err := n.svc.SearchWire(req)
				if err != nil {
					return 0, nil, err
				}
				lists[pi] = resp.Matches
			}
			if !gobEqual(cluster.MergeWire(lists, tau), want.Matches) {
				bad = append(bad, fmt.Sprintf("wire merge of %v at τ=%d is not byte-identical to the reference", words, tau))
			}
		}
	}
	return checkSamples * 4, bad, nil
}

// verifyBatch replays seeded batches and single searches through the client
// (every lookup a cache miss) and checks each query against a direct,
// uncached scan of the node's core server.
func (s *system) verifyBatch() (int, []string, error) {
	srv := s.nodes[0].svc.Server
	u := s.client.User()
	gen := newQueryGen(s.dict, s.keys, s.seed^0xba7c)
	var bad []string
	for i := 0; i < 2; i++ {
		qs := make([][]string, s.sp.batch)
		for j := range qs {
			qs[j] = gen.next()
		}
		rs := s.seed*1000 + int64(i)
		u.SeedQueryRNG(rs)
		got, err := s.client.SearchBatch(qs, s.sp.topK)
		if err != nil {
			return 0, nil, err
		}
		u.SeedQueryRNG(rs)
		for j, words := range qs {
			q, err := u.BuildQuery(words)
			if err != nil {
				return 0, nil, err
			}
			want, err := srv.SearchTop(q, s.sp.topK)
			if err != nil {
				return 0, nil, err
			}
			if !sameMatches(got[j], want) {
				bad = append(bad, fmt.Sprintf("batch query %d %v differs from a direct scan", j, words))
			}
		}
	}
	for i := 0; i < checkSamples; i++ {
		words := gen.next()
		rs := s.seed*1000 + 100 + int64(i)
		u.SeedQueryRNG(rs)
		got, err := s.client.Search(words, s.sp.topK)
		if err != nil {
			return 0, nil, err
		}
		u.SeedQueryRNG(rs)
		q, err := u.BuildQuery(words)
		if err != nil {
			return 0, nil, err
		}
		want, err := srv.SearchTop(q, s.sp.topK)
		if err != nil {
			return 0, nil, err
		}
		if !sameMatches(got, want) {
			bad = append(bad, fmt.Sprintf("search %v differs from a direct scan", words))
		}
	}
	return 2*s.sp.batch + checkSamples, bad, nil
}

// verifyDurable runs after the writer and searcher stopped: every pool
// query, served over the wire (cache hits included), must equal an uncached
// scan of the engine's server, and the stored document set must be exactly
// the writer's model.
func (s *system) verifyDurable() (int, []string, error) {
	c, err := dialRaw(s.nodes[0].addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	srv := s.eng.Server()
	var bad []string
	for qi, raw := range s.pool {
		got, err := c.search(context.Background(), raw, s.sp.topK)
		if err != nil {
			return 0, nil, err
		}
		var q bitindex.Vector
		if err := q.UnmarshalBinary(raw); err != nil {
			return 0, nil, err
		}
		want, err := srv.SearchTop(&q, s.sp.topK)
		if err != nil {
			return 0, nil, err
		}
		wire, err := toWire(want)
		if err != nil {
			return 0, nil, err
		}
		if !gobEqual(got, wire) {
			bad = append(bad, fmt.Sprintf("pool query %d %v: served result differs from an uncached scan", qi, s.poolWords[qi]))
		}
	}
	ids := srv.DocumentIDs()
	want := make([]string, 0, len(s.model.stored))
	for _, i := range s.model.stored {
		want = append(want, s.ids[i])
	}
	slices.Sort(ids)
	slices.Sort(want)
	if !slices.Equal(ids, want) {
		bad = append(bad, fmt.Sprintf("engine stores %d documents, the writer's model %d (or the sets differ)", len(ids), len(want)))
	}
	return len(s.pool) + 1, bad, nil
}

// toWire encodes core matches the way the cloud daemon puts them on the
// wire, metadata included.
func toWire(ms []core.Match) ([]protocol.MatchWire, error) {
	out := make([]protocol.MatchWire, len(ms))
	for i, m := range ms {
		meta, err := m.Meta.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out[i] = protocol.MatchWire{DocID: m.DocID, Rank: m.Rank, Meta: meta}
	}
	return out, nil
}
