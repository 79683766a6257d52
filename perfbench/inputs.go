package main

import (
	"math/rand"

	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/rank"
)

// Corpus shape shared by every workload: the paper's Figure 4 setting of
// 20 genuine keywords per document over a 2000-word dictionary, term
// frequencies up to 15 feeding η = 3 ranking levels, and 64 trapdoor bins.
const (
	keywordsPerDoc = 20
	dictionarySize = 2000
	maxTermFreq    = 15
	contentWords   = 24
	queryKeywords  = 2
)

// params returns the scheme parameters every workload runs with.
func params() core.Params {
	p := core.DefaultParams()
	p.Bins = 64
	p.Levels = rank.DefaultLevels(3, maxTermFreq)
	return p
}

// genCorpus draws n documents from the seed. The same seed yields the same
// documents, content included.
func genCorpus(n int, seed int64) ([]*corpus.Document, error) {
	return corpus.Generate(corpus.Config{
		NumDocs:        n,
		KeywordsPerDoc: keywordsPerDoc,
		Dictionary:     corpus.Dictionary(dictionarySize),
		MaxTermFreq:    maxTermFreq,
		ContentWords:   contentWords,
		Seed:           seed,
	})
}

// docKeys is one document's keywords as sorted dictionary positions — the
// compact form the benchmark keeps, so its own inputs stay a small share of
// the live heap it reports.
type docKeys [keywordsPerDoc]uint16

// keysOf records the keywords of the first n documents.
func keysOf(docs []*corpus.Document, n int, dict []string) []docKeys {
	pos := make(map[string]uint16, len(dict))
	for i, w := range dict {
		pos[w] = uint16(i)
	}
	out := make([]docKeys, n)
	for i := range out {
		for j, w := range docs[i].Keywords() {
			out[i][j] = pos[w]
		}
	}
	return out
}

// queryGen draws search terms the way a user would: queryKeywords distinct
// keywords of one document picked uniformly from the corpus, so every query
// has at least one true match.
type queryGen struct {
	rng  *rand.Rand
	dict []string
	keys []docKeys
}

func newQueryGen(dict []string, keys []docKeys, seed int64) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), dict: dict, keys: keys}
}

func (g *queryGen) next() []string {
	kw := g.keys[g.rng.Intn(len(g.keys))]
	out := make([]string, 0, queryKeywords)
	for _, i := range g.rng.Perm(len(kw))[:queryKeywords] {
		out = append(out, g.dict[kw[i]])
	}
	return out
}

// zipfPicker draws indices into a pool of n entries with Zipf skew s: entry
// 0 is the most popular, as a few hot queries dominate real search traffic.
type zipfPicker struct{ z *rand.Zipf }

func newZipfPicker(n int, s float64, seed int64) *zipfPicker {
	return &zipfPicker{z: rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))}
}

func (p *zipfPicker) next() int { return int(p.z.Uint64()) }
