package core

import (
	"fmt"
	"sync"
	"testing"

	"mkse/internal/bitindex"
	"mkse/internal/corpus"
)

// layoutModel records the SearchIndex last uploaded for every live document
// ID: the state the server's arenas must reproduce. Writers update it only
// after the server acknowledged the operation, and each ID has one writer, so
// after the writers finish it is exact even when they ran concurrently.
type layoutModel struct {
	mu   sync.Mutex
	want map[string]*SearchIndex
}

func newLayoutModel() *layoutModel {
	return &layoutModel{want: make(map[string]*SearchIndex)}
}

func (m *layoutModel) upload(srv *Server, si *SearchIndex) error {
	if err := srv.Upload(si, &EncryptedDocument{ID: si.DocID, Ciphertext: []byte(si.DocID), EncKey: []byte{1}}); err != nil {
		return err
	}
	m.mu.Lock()
	m.want[si.DocID] = si
	m.mu.Unlock()
	return nil
}

// uploadDoc builds d's index and uploads it through the model.
func (m *layoutModel) uploadDoc(t *testing.T, o *Owner, srv *Server, d *corpus.Document) {
	t.Helper()
	si, err := o.BuildIndex(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.upload(srv, si); err != nil {
		t.Fatal(err)
	}
}

// uploadCorpus is the package's uploadCorpus for one server, through the
// model.
func (m *layoutModel) uploadCorpus(t *testing.T, o *Owner, srv *Server, n int, seed int64) []*corpus.Document {
	t.Helper()
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: n, KeywordsPerDoc: 12, Dictionary: corpus.Dictionary(300),
		MaxTermFreq: 15, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		m.uploadDoc(t, o, srv, d)
	}
	return docs
}

func (m *layoutModel) delete(srv *Server, docID string) error {
	if err := srv.Delete(docID); err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.want, docID)
	m.mu.Unlock()
	return nil
}

// check asserts the layout invariant. Every shard holds level 1 once, in
// stride word-major columns of one entry per row, and levels 2…η in
// row-major arenas of one stride per row. Every stored document's Exported
// levels and its Meta in a search result equal the index last uploaded
// for its ID — whichever sequence of uploads, in-place replacements,
// swap-remove deletes and re-uploads put it where it now sits. Both
// readers gather level 1 from the same columns the scan kernel sweeps, so
// the model, not Export, is the reference.
func (m *layoutModel) check(t *testing.T, srv *Server) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := 0
	for i, sh := range srv.shards {
		sh.mu.RLock()
		err := sh.shapeError(srv.params.Eta())
		rows += len(sh.ids)
		sh.mu.RUnlock()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if rows != len(m.want) {
		t.Fatalf("server holds %d documents, model %d", rows, len(m.want))
	}

	err := srv.Export(func(si *SearchIndex, _ *EncryptedDocument) error {
		want, ok := m.want[si.DocID]
		if !ok {
			return fmt.Errorf("exported %q, which is not live", si.DocID)
		}
		if len(si.Levels) != len(want.Levels) {
			return fmt.Errorf("%q exported %d levels, uploaded %d", si.DocID, len(si.Levels), len(want.Levels))
		}
		for l, v := range si.Levels {
			if !v.Equal(want.Levels[l]) {
				return fmt.Errorf("%q level %d exported %s, uploaded %s", si.DocID, l+1, v, want.Levels[l])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// An all-ones query has no zero bits, so every stored index matches it
	// (Equation 3) and every document comes back with its Meta.
	res, err := srv.Search(bitindex.NewOnes(srv.params.R))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(m.want) {
		t.Fatalf("all-ones query matched %d documents, model holds %d", len(res), len(m.want))
	}
	for _, r := range res {
		want, ok := m.want[r.DocID]
		if !ok {
			t.Fatalf("search returned %q, which is not live", r.DocID)
		}
		if !r.Meta.Equal(want.Levels[0]) {
			t.Fatalf("%q Meta %s, uploaded level 1 %s", r.DocID, r.Meta, want.Levels[0])
		}
	}
}

// shapeError reports a shard whose arenas do not hold exactly one entry per
// row: stride level-1 columns of len(ids) words, and η−1 upper arenas of
// len(ids)·stride words. The caller holds the shard's lock.
func (sh *shard) shapeError(eta int) error {
	rows := len(sh.ids)
	if len(sh.seqs) != rows || len(sh.docs) != rows || len(sh.byID) != rows {
		return fmt.Errorf("%d ids, %d seqs, %d docs, %d map entries", rows, len(sh.seqs), len(sh.docs), len(sh.byID))
	}
	if len(sh.cols) != sh.stride {
		return fmt.Errorf("%d columns, stride %d", len(sh.cols), sh.stride)
	}
	for w, col := range sh.cols {
		if len(col) != rows {
			return fmt.Errorf("column %d: %d entries, %d rows", w, len(col), rows)
		}
	}
	if len(sh.upper) != eta-1 {
		return fmt.Errorf("%d upper arenas, η = %d", len(sh.upper), eta)
	}
	for l, arena := range sh.upper {
		if len(arena) != rows*sh.stride {
			return fmt.Errorf("level-%d arena: %d words, %d rows of %d", l+2, len(arena), rows, sh.stride)
		}
	}
	return nil
}

// Upload (fresh and replacing), Delete and re-upload must keep every
// stored document's level-1 columns and upper arena rows equal to the index
// last uploaded for it, and searches through the column kernel must stay
// byte-identical to the sequential reference at every step.
func TestWordMajorLayoutInvariant(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := newLayoutModel()
	docs := m.uploadCorpus(t, o, srv, 60, 71)

	u := newUserFor(t, o, "col-mirror")
	u.SeedQueryRNG(73)
	words := docs[5].Keywords()[:2]
	fetchTrapdoors(t, o, u, words)
	q, err := u.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(step string) {
		t.Helper()
		m.check(t, srv)
		got, err := srv.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, step, got, searchReference(t, srv, q, 0))
	}
	verify("after initial upload")

	// Replace a third of the corpus in place (same IDs, new term freqs and
	// one new keyword → new index words at every level, written over the
	// existing columns and rows).
	for i := 0; i < len(docs); i += 3 {
		d := docs[i]
		for w := range d.TermFreqs {
			d.TermFreqs[w] = 1 + (d.TermFreqs[w]+6)%15
		}
		d.TermFreqs[fmt.Sprintf("replaced%d", i)] = 1
		m.uploadDoc(t, o, srv, d)
	}
	verify("after in-place replacements")

	// Delete every other document — swap-remove churns row positions, and
	// every level must follow every swap.
	for i := 0; i < len(docs); i += 2 {
		if err := m.delete(srv, docs[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	verify("after deletions")

	// Re-upload the deleted half (rows append again at new positions).
	for i := 0; i < len(docs); i += 2 {
		m.uploadDoc(t, o, srv, docs[i])
	}
	verify("after re-upload")

	for _, d := range docs {
		if err := m.delete(srv, d.ID); err != nil {
			t.Fatal(err)
		}
	}
	verify("after deleting everything")
}

// A concurrent upload/delete/search hammer over the transposed columns: the
// race detector checks the locking, the final layout-invariant and
// reference-search checks the data. Unlike TestConcurrentUploadSearchFetch
// this mixes Delete into the write load, so searches race against
// swap-removes shifting rows between columns mid-run.
func TestConcurrentUploadDeleteSearchColumns(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := newLayoutModel()
	seedDocs := m.uploadCorpus(t, o, srv, 30, 79)

	u := newUserFor(t, o, "col-hammer")
	u.SeedQueryRNG(83)
	words := seedDocs[0].Keywords()[:2]
	fetchTrapdoors(t, o, u, words)
	q, err := u.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}

	const writers, searchers, iters = 3, 3, 20
	errs := make(chan error, writers+searchers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				doc := &corpus.Document{
					ID:        fmt.Sprintf("colhammer-%d-%d", w, i),
					TermFreqs: map[string]int{"kw": 1 + i%15, fmt.Sprintf("w%d", w): 2},
				}
				si, err := o.BuildIndex(doc)
				if err != nil {
					errs <- err
					return
				}
				if err := m.upload(srv, si); err != nil {
					errs <- err
					return
				}
				// Delete an earlier document of this writer's, and
				// sometimes a seed document, so swap-removes hit rows
				// other goroutines are scanning.
				if i%2 == 1 {
					if err := m.delete(srv, fmt.Sprintf("colhammer-%d-%d", w, i-1)); err != nil {
						errs <- err
						return
					}
				}
				if i == iters/2 {
					if err := m.delete(srv, seedDocs[w].ID); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < searchers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := srv.SearchTop(q, 5); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m.check(t, srv)
	got, err := srv.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "post-hammer", got, searchReference(t, srv, q, 0))
}

// An empty server (and an emptied shard) must scan cleanly through the
// column kernel: zero rows means zero-length columns, not nil-column
// panics.
func TestColumnScanEmptyShards(t *testing.T) {
	o := sharedOwner(t)
	srv, err := NewServerSharded(o.Params(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := bitindex.NewOnes(o.Params().R)
	res, err := srv.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty server matched %d documents", len(res))
	}
	newLayoutModel().check(t, srv)
}
