// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (DESIGN.md §3 maps each to its experiment). Timing-oriented
// artifacts (Figure 4, the Cao comparison) are proper testing.B loops over
// the measured operation; distribution/accuracy artifacts (Figure 2/3,
// tables, ranking) benchmark one full experiment regeneration.
//
// Run everything:  go test -bench=. -benchmem
// One artifact:    go test -bench=BenchmarkFig4b -benchmem
//
// Owners are built with NewOwnerDeterministic so index and query material —
// and therefore match counts and the work a search does — are identical
// across processes; numbers from different runs are directly comparable.
package mkse

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"mkse/internal/baseline/caomrse"
	"mkse/internal/bitindex"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/experiments"
	"mkse/internal/harness"
	"mkse/internal/protocol"
	"mkse/internal/rank"
	"mkse/internal/service"
	"mkse/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Figure 4(a) — index construction time (per document, by rank levels)
// ---------------------------------------------------------------------------

// BenchmarkIndexConstruction measures the owner's per-document index build
// with the paper's 20 genuine + 60 random keywords, for η = 1 (no ranking),
// 3 and 5 — the three series of Figure 4(a). Multiply by the corpus size for
// the paper's totals (e.g. ×10000 for the largest point).
func BenchmarkIndexConstruction(b *testing.B) {
	dict := corpus.Dictionary(4000)
	for _, eta := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("levels=%d", eta), func(b *testing.B) {
			p := core.DefaultParams()
			p.Bins = 64
			p.Levels = rank.DefaultLevels(eta, 15)
			owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
			if err != nil {
				b.Fatal(err)
			}
			docs, err := corpus.Generate(corpus.Config{
				NumDocs: 256, KeywordsPerDoc: 20, Dictionary: dict, MaxTermFreq: 15, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := owner.BuildIndex(docs[i%len(docs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 4(b) — search time (per query, by corpus size and rank levels)
// ---------------------------------------------------------------------------

// BenchmarkSearch measures one ranked query over stored indices — Figure
// 4(b)'s series. The paper reports ≈1.5 ms over 6000 documents (2012 Java).
func BenchmarkSearch(b *testing.B) {
	dict := corpus.Dictionary(4000)
	for _, eta := range []int{1, 3, 5} {
		for _, size := range []int{2000, 6000, 10000} {
			b.Run(fmt.Sprintf("levels=%d/docs=%d", eta, size), func(b *testing.B) {
				p := core.DefaultParams()
				p.Bins = 64
				p.Levels = rank.DefaultLevels(eta, 15)
				owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
				if err != nil {
					b.Fatal(err)
				}
				// One shard/worker: this benchmark replicates the paper's
				// sequential scan; BenchmarkShardedSearchTop covers layouts.
				server, err := core.NewServerSharded(p, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				docs, err := corpus.Generate(corpus.Config{
					NumDocs: size, KeywordsPerDoc: 20, Dictionary: dict, MaxTermFreq: 15, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, d := range docs {
					si, err := owner.BuildIndex(d)
					if err != nil {
						b.Fatal(err)
					}
					if err := server.Upload(si, &core.EncryptedDocument{ID: d.ID, Ciphertext: []byte{0}, EncKey: []byte{0}}); err != nil {
						b.Fatal(err)
					}
				}
				q := queryFor(b, owner, docs[0].Keywords()[:2])
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := server.Search(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSearchTelemetry is BenchmarkSearch's middle configuration
// (levels=3, docs=10000) with the telemetry scan histogram attached, the
// way EnableMetrics wires it in a daemon. CI compares it against the
// matching BenchmarkSearch sub-benchmark and fails on more than a few
// percent of overhead: an observation must stay a bucket-index computation
// plus two atomic adds. Allocation-freedom under telemetry is asserted
// separately by core's TestSearchScanPathAllocationFree.
func BenchmarkSearchTelemetry(b *testing.B) {
	const eta, size = 3, 10000
	p := core.DefaultParams()
	p.Bins = 64
	p.Levels = rank.DefaultLevels(eta, 15)
	owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
	if err != nil {
		b.Fatal(err)
	}
	server, err := core.NewServerSharded(p, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: size, KeywordsPerDoc: 20, Dictionary: corpus.Dictionary(4000), MaxTermFreq: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range docs {
		si, err := owner.BuildIndex(d)
		if err != nil {
			b.Fatal(err)
		}
		if err := server.Upload(si, &core.EncryptedDocument{ID: d.ID, Ciphertext: []byte{0}, EncKey: []byte{0}}); err != nil {
			b.Fatal(err)
		}
	}
	scanHist := telemetry.New().Histogram(
		"mkse_scan_duration_seconds", "scan timings", telemetry.RequestBuckets())
	server.ObserveScanContexts(func(_ context.Context, _ time.Time, d time.Duration) { scanHist.Observe(d) })
	q := queryFor(b, owner, docs[0].Keywords()[:2])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

// queryFor builds a randomized query as a user would, via owner trapdoors.
func queryFor(b *testing.B, owner *core.Owner, words []string) *bitindex.Vector {
	b.Helper()
	p := owner.Params()
	q := bitindex.NewOnes(p.R)
	for _, w := range words {
		q.AndInto(owner.Trapdoor(w))
	}
	for i, rt := range owner.RandomTrapdoors() {
		if i >= p.V {
			break
		}
		q.AndInto(rt)
	}
	return q
}

// ---------------------------------------------------------------------------
// Section 8.1 — MKS vs Cao et al. MRSE_I
// ---------------------------------------------------------------------------

// BenchmarkVsCaoIndexConstruction sets the two schemes' per-document index
// generation side by side (paper: 60 s vs 4500 s for 6000 documents). The
// MRSE cost is O(n²) in the dictionary size; n = 1000 here keeps the run
// short — the paper's n in the thousands widens the gap further.
func BenchmarkVsCaoIndexConstruction(b *testing.B) {
	dict := corpus.Dictionary(1000)
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 64, KeywordsPerDoc: 20, Dictionary: dict, MaxTermFreq: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mks", func(b *testing.B) {
		p := core.DefaultParams()
		p.Bins = 64
		p.Levels = rank.DefaultLevels(5, 15)
		owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := owner.BuildIndex(docs[i%len(docs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mrse", func(b *testing.B) {
		scheme, err := caomrse.New(dict, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scheme.BuildIndex(docs[i%len(docs)])
		}
	})
}

// BenchmarkVsCaoSearch sets one full query over 1000 stored documents side
// by side (paper: 1.5 ms vs 600 ms over 6000 documents).
func BenchmarkVsCaoSearch(b *testing.B) {
	dict := corpus.Dictionary(1000)
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 1000, KeywordsPerDoc: 20, Dictionary: dict, MaxTermFreq: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	words := docs[0].Keywords()[:3]

	b.Run("mks", func(b *testing.B) {
		p := core.DefaultParams()
		p.Bins = 64
		p.Levels = rank.DefaultLevels(5, 15)
		owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
		if err != nil {
			b.Fatal(err)
		}
		// Sequential layout, like the MRSE baseline it is compared against.
		server, err := core.NewServerSharded(p, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range docs {
			si, err := owner.BuildIndex(d)
			if err != nil {
				b.Fatal(err)
			}
			if err := server.Upload(si, &core.EncryptedDocument{ID: d.ID, Ciphertext: []byte{0}, EncKey: []byte{0}}); err != nil {
				b.Fatal(err)
			}
		}
		q := queryFor(b, owner, words)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := server.Search(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mrse", func(b *testing.B) {
		scheme, err := caomrse.New(dict, 1)
		if err != nil {
			b.Fatal(err)
		}
		indices := make([]*caomrse.Index, len(docs))
		for i, d := range docs {
			indices[i] = scheme.BuildIndex(d)
		}
		td, err := scheme.Trapdoor(words)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			caomrse.Search(indices, td, 10)
		}
	})
}

// ---------------------------------------------------------------------------
// Figure 2 — query-distance histograms
// ---------------------------------------------------------------------------

// BenchmarkFig2a regenerates the Figure 2(a) histograms (2500 randomized
// queries + 2500 Hamming distances per iteration).
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2a(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2b regenerates the Figure 2(b) histograms.
func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2b(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 3 — false accept rates
// ---------------------------------------------------------------------------

// BenchmarkFig3 regenerates the Figure 3 FAR sweep (4 document-keyword
// counts × 4 query sizes over a 400-document corpus per iteration).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(400, 25, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table 1 — communication costs
// ---------------------------------------------------------------------------

// BenchmarkTable1Protocol regenerates the Table 1 accounting and exercises
// the real wire encodings it models.
func BenchmarkTable1Protocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(3, 10, 2, 1<<20, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table 2 — computation costs (plus the protocol's unit operations)
// ---------------------------------------------------------------------------

// BenchmarkTable2Flow runs the full instrumented protocol flow Table 2
// tabulates: trapdoor exchange, query, ranked search over 300 documents,
// blinded retrieval.
func BenchmarkTable2Flow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(300, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrapdoorGeneration isolates the user-side "1 hash" entry of
// Table 2: one keyword-index derivation (HMAC expansion + GF reduction).
func BenchmarkTrapdoorGeneration(b *testing.B) {
	p := core.DefaultParams()
	p.Bins = 64
	owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		owner.Trapdoor("confidential")
	}
}

// BenchmarkBlindDecryption isolates the Table 2 retrieval arithmetic: user
// blinding + owner exponentiation + unblinding.
func BenchmarkBlindDecryption(b *testing.B) {
	p := core.DefaultParams()
	p.Bins = 8
	owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
	if err != nil {
		b.Fatal(err)
	}
	doc := &corpus.Document{ID: "d", TermFreqs: map[string]int{"k": 1}, Content: []byte("x")}
	enc, err := owner.EncryptDocument(doc)
	if err != nil {
		b.Fatal(err)
	}
	user, err := core.NewUser("bench", p, owner.PublicKey(), owner.RandomTrapdoors())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := user.DecryptDocument(enc, func(z *big.Int) (*big.Int, error) {
			return owner.BlindDecrypt(z)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Section 5 — ranking quality
// ---------------------------------------------------------------------------

// BenchmarkRankingQuality regenerates one trial of the Section 5 agreement
// study (1000 documents indexed and searched per iteration).
func BenchmarkRankingQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RankingQuality(1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Section 6 analytics & Section 4.1 attack
// ---------------------------------------------------------------------------

// BenchmarkAnalytics regenerates the F(x) model-vs-simulation table.
func BenchmarkAnalytics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Analytics(50, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBruteForceAttack runs the Section 4.1 dictionary attack against
// both the keyless baseline and MKS (3000-word dictionary per iteration).
func BenchmarkBruteForceAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BruteForceAttack(3000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Sharded engine — scaling beyond the paper (EXPERIMENTS.md "Sharded search")
// ---------------------------------------------------------------------------

// benchServer builds a server with the given layout holding size documents.
func benchServer(b *testing.B, shards, workers, size int) (*core.Server, *bitindex.Vector, []*bitindex.Vector) {
	b.Helper()
	p := core.DefaultParams()
	p.Bins = 64
	p.Levels = rank.DefaultLevels(3, 15)
	owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
	if err != nil {
		b.Fatal(err)
	}
	server, err := core.NewServerSharded(p, shards, workers)
	if err != nil {
		b.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: size, KeywordsPerDoc: 20, Dictionary: corpus.Dictionary(4000),
		MaxTermFreq: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	indices, err := owner.BuildIndexes(docs, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i, d := range docs {
		if err := server.Upload(indices[i], &core.EncryptedDocument{ID: d.ID, Ciphertext: []byte{0}, EncKey: []byte{0}}); err != nil {
			b.Fatal(err)
		}
	}
	q := queryFor(b, owner, docs[0].Keywords()[:2])
	batch := make([]*bitindex.Vector, 16)
	for i := range batch {
		batch[i] = queryFor(b, owner, docs[i*7%size].Keywords()[:2])
	}
	return server, q, batch
}

// BenchmarkMatchKernel isolates the Equation-3 scan the server spends its
// time in, across index layouts (EXPERIMENTS.md "Columnar arenas"): boxed
// per-document vectors (the pre-arena layout), the flat columnar arena with
// a dense word sweep, the arena with the zero-word-skipping kernel, and the
// word-major transposed layout with the blocked bitmap-refinement kernel
// (the layout the server's level-1 screen runs on) — for a
// near-single-trapdoor query (7 zeros) and a fully randomized
// multi-keyword query (170 zeros, every word active).
//
// kernelSink keeps the match counts live so the timed loops cannot be
// dead-code-eliminated.
var kernelSink int

func BenchmarkMatchKernel(b *testing.B) {
	const docs, r = 10000, 448
	stride := bitindex.WordsFor(r)
	rng := rand.New(rand.NewSource(31))
	boxed := make([]*bitindex.Vector, docs)
	arena := make([]uint64, 0, docs*stride)
	for i := range boxed {
		v := bitindex.New(r)
		for j := 0; j < r; j++ {
			if rng.Intn(100) < 28 { // ≈ document-index one-density under defaults
				v.SetBit(j, 1)
			}
		}
		boxed[i] = v
		arena = v.AppendTo(arena)
	}
	cols := make([][]uint64, stride)
	for w := range cols {
		cols[w] = make([]uint64, docs)
	}
	for i, v := range boxed {
		for w, word := range v.Words() {
			cols[w][i] = word
		}
	}
	for _, zeros := range []int{7, 170} {
		q := bitindex.NewOnes(r)
		for _, pos := range rng.Perm(r)[:zeros] {
			q.SetBit(pos, 0)
		}
		sq := q.Sparsify()
		b.Run(fmt.Sprintf("zeros=%d/layout=boxed", zeros), func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				for _, v := range boxed {
					if v.Matches(q) {
						n++
					}
				}
			}
			kernelSink += n
		})
		b.Run(fmt.Sprintf("zeros=%d/layout=arena", zeros), func(b *testing.B) {
			b.ReportAllocs()
			qw := q.Words()
			n := 0
			for i := 0; i < b.N; i++ {
				for base := 0; base < len(arena); base += stride {
					ok := true
					for wi, w := range arena[base : base+stride] {
						if w&^qw[wi] != 0 {
							ok = false
							break
						}
					}
					if ok {
						n++
					}
				}
			}
			kernelSink += n
		})
		b.Run(fmt.Sprintf("zeros=%d/layout=arena+skip", zeros), func(b *testing.B) {
			b.ReportAllocs()
			var rows []int32
			for i := 0; i < b.N; i++ {
				rows = sq.AppendMatchingRows(arena, stride, rows[:0])
			}
			kernelSink += len(rows)
		})
		b.Run(fmt.Sprintf("zeros=%d/layout=cols+blocked", zeros), func(b *testing.B) {
			b.ReportAllocs()
			var bs bitindex.BlockScratch
			var rows []int32
			for i := 0; i < b.N; i++ {
				rows = sq.AppendMatchingRowsColumns(cols, docs, &bs, rows[:0])
			}
			kernelSink += len(rows)
		})
	}
}

// ---------------------------------------------------------------------------
// Query-result cache (EXPERIMENTS.md "Query-result cache")
// ---------------------------------------------------------------------------

// BenchmarkSearchCached measures the cloud service's wire-level search path
// over 10k documents with the query-result cache in its three regimes: the
// pure hit path (a repeated query answered without touching the arenas),
// the pure miss path (an LRU too small for the query working set, so every
// lookup falls through to a full scan plus fingerprint/insert overhead),
// and an invalidation-heavy mix (a mutation bumps the epoch before every
// query, the cache's worst case). The uncached sub-benchmark is the same
// path with no cache configured — the baseline the warm-hit speedup is
// quoted against. Owners are deterministic, so the match sets — and the
// work a miss does — are identical across runs.
func BenchmarkSearchCached(b *testing.B) {
	const size = 10000
	p := core.DefaultParams()
	p.Bins = 64
	p.Levels = rank.DefaultLevels(3, 15)
	owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
	if err != nil {
		b.Fatal(err)
	}
	server, err := core.NewServerSharded(p, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: size, KeywordsPerDoc: 20, Dictionary: corpus.Dictionary(4000),
		MaxTermFreq: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	indices, err := owner.BuildIndexes(docs, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i, d := range docs {
		if err := server.Upload(indices[i], &core.EncryptedDocument{ID: d.ID, Ciphertext: []byte{0}, EncKey: []byte{0}}); err != nil {
			b.Fatal(err)
		}
	}
	reqFor := func(i int) *protocol.SearchRequest {
		q := queryFor(b, owner, docs[(i*13)%size].Keywords()[:2])
		raw, err := q.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		return &protocol.SearchRequest{Query: raw, TopK: 10}
	}
	reqs := make([]*protocol.SearchRequest, 512)
	for i := range reqs {
		reqs[i] = reqFor(i)
	}
	svc := &service.CloudService{Server: server}
	run := func(req func(i int) *protocol.SearchRequest) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.SearchWire(req(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	svc.Cache = nil
	b.Run("uncached", run(func(int) *protocol.SearchRequest { return reqs[0] }))

	svc.Cache = service.NewResultCache(64 << 20)
	if _, err := svc.SearchWire(reqs[0]); err != nil { // prime
		b.Fatal(err)
	}
	b.Run("hit", run(func(int) *protocol.SearchRequest { return reqs[0] }))

	// A budget far under the 512-query working set: every entry is evicted
	// before its query comes around again, so every lookup misses.
	svc.Cache = service.NewResultCache(64 << 10)
	b.Run("miss", run(func(i int) *protocol.SearchRequest { return reqs[i%len(reqs)] }))

	// Invalidation-heavy mix: an in-place re-upload bumps the epoch before
	// every query, so each search pays mutation + scan + re-insert.
	svc.Cache = service.NewResultCache(64 << 20)
	b.Run("invalidate-mix", run(func(i int) *protocol.SearchRequest {
		j := i % 8
		if err := server.Upload(indices[j], &core.EncryptedDocument{ID: docs[j].ID, Ciphertext: []byte{0}, EncKey: []byte{0}}); err != nil {
			b.Fatal(err)
		}
		return reqs[j]
	}))
}

// BenchmarkShardedSearchTop compares ranked top-τ search across store
// layouts: 1 shard (the seed's monolithic scan) versus one shard per core.
func BenchmarkShardedSearchTop(b *testing.B) {
	for _, size := range []int{1000, 10000} {
		for _, layout := range []struct {
			name            string
			shards, workers int
		}{
			{"shards=1", 1, 1},
			{"shards=percore", 0, 0},
		} {
			b.Run(fmt.Sprintf("docs=%d/%s", size, layout.name), func(b *testing.B) {
				server, q, _ := benchServer(b, layout.shards, layout.workers, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := server.SearchTop(q, 10); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSearchBatch compares a 16-query batch evaluated one Search at a
// time against a single SearchBatch pass over the same store.
func BenchmarkSearchBatch(b *testing.B) {
	for _, size := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("docs=%d/sequential", size), func(b *testing.B) {
			server, _, batch := benchServer(b, 0, 0, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range batch {
					if _, err := server.SearchTop(q, 10); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("docs=%d/batch", size), func(b *testing.B) {
			server, _, batch := benchServer(b, 0, 0, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := server.SearchBatch(batch, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Partitioned cluster — scatter-gather search (EXPERIMENTS.md "Cluster")
// ---------------------------------------------------------------------------

// BenchmarkClusterSearch measures a fat client's full scatter-gather search
// over loopback TCP — fan-out to every partition, per-partition scan, global
// merge — at 1, 2 and 4 partitions holding the same 2000-document corpus.
func BenchmarkClusterSearch(b *testing.B) {
	const size = 2000
	p := core.DefaultParams()
	p.Bins = 64
	p.Levels = rank.DefaultLevels(3, 15)
	owner, err := core.NewOwnerDeterministic(p, 1, 0xbe7c4)
	if err != nil {
		b.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: size, KeywordsPerDoc: 20, Dictionary: corpus.Dictionary(4000),
		MaxTermFreq: 15, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	indices, err := owner.BuildIndexes(docs, 0)
	if err != nil {
		b.Fatal(err)
	}
	dialed := 0
	for _, partitions := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("partitions=%d", partitions), func(b *testing.B) {
			clu, err := harness.StartCluster(p, partitions, harness.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer clu.Close()
			m := clu.Config().Map()
			for i, d := range docs {
				enc := &core.EncryptedDocument{ID: d.ID, Ciphertext: []byte{0}, EncKey: []byte{0}}
				if err := clu.Primaries[m.Owner(d.ID)].Svc.Server.Upload(indices[i], enc); err != nil {
					b.Fatal(err)
				}
			}
			ol, oaddr, err := harness.StartOwner(owner)
			if err != nil {
				b.Fatal(err)
			}
			defer ol.Close()
			// The owner outlives the sub-benchmark reruns, so every dial
			// needs a fresh user ID.
			dialed++
			client, err := service.DialCluster(fmt.Sprintf("bench-clu-%d-%d", partitions, dialed), oaddr, clu.Config())
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			words := docs[0].Keywords()[:2]
			if _, err := client.Search(words, 10); err != nil { // warm trapdoors
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Search(words, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
