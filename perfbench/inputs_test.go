package main

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"mkse/internal/corpus"
)

func TestCorpusAndQueriesAreDeterministicPerSeed(t *testing.T) {
	a, err := genCorpus(60, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genCorpus(60, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genCorpus(60, 8)
	if err != nil {
		t.Fatal(err)
	}
	same, differs := true, false
	for i := range a {
		if a[i].ID != b[i].ID || !maps.Equal(a[i].TermFreqs, b[i].TermFreqs) || !bytes.Equal(a[i].Content, b[i].Content) {
			same = false
		}
		if !maps.Equal(a[i].TermFreqs, c[i].TermFreqs) {
			differs = true
		}
	}
	if !same {
		t.Fatal("the same seed produced different corpora")
	}
	if !differs {
		t.Fatal("different seeds produced the same corpus")
	}

	dict := corpus.Dictionary(dictionarySize)
	ka, kb := keysOf(a, len(a), dict), keysOf(b, len(b), dict)
	if !slices.Equal(ka, kb) {
		t.Fatal("keyword positions differ for the same corpus")
	}
	for i, d := range a {
		for j, w := range d.Keywords() {
			if dict[ka[i][j]] != w {
				t.Fatalf("doc %d keyword %d: position %d is %q, want %q", i, j, ka[i][j], dict[ka[i][j]], w)
			}
		}
	}
	ga, gb := newQueryGen(dict, ka, 3), newQueryGen(dict, kb, 3)
	for i := 0; i < 100; i++ {
		qa, qb := ga.next(), gb.next()
		if !slices.Equal(qa, qb) {
			t.Fatalf("query %d: %v vs %v for the same seed", i, qa, qb)
		}
		if len(qa) != queryKeywords || qa[0] == qa[1] {
			t.Fatalf("query %d: %v, want %d distinct keywords", i, qa, queryKeywords)
		}
	}
}

func TestZipfPoolIsDeterministicAndSkewed(t *testing.T) {
	const n = 256
	a, b := newZipfPicker(n, 1.1, 5), newZipfPicker(n, 1.1, 5)
	counts := make([]int, n)
	for i := 0; i < 20000; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("draw %d: %d vs %d for the same seed", i, x, y)
		}
		if x < 0 || x >= n {
			t.Fatalf("draw %d = %d outside the pool", i, x)
		}
		counts[x]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[200] {
		t.Fatalf("popularity not decreasing with rank: %d %d %d %d", counts[0], counts[1], counts[10], counts[200])
	}
	c := newZipfPicker(n, 1.1, 6)
	a = newZipfPicker(n, 1.1, 5)
	differs := false
	for i := 0; i < 100; i++ {
		if a.next() != c.next() {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds drew the same picks")
	}
}
