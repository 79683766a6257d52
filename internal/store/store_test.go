package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/rank"
)

// populatedServer builds an owner + server pair with a few documents and
// returns both plus the documents for verification.
func populatedServer(t *testing.T) (*core.Owner, *core.Server, []*corpus.Document) {
	t.Helper()
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 16
	owner, err := core.NewOwnerDeterministic(p, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 12, KeywordsPerDoc: 8, Dictionary: corpus.Dictionary(100),
		MaxTermFreq: 15, ContentWords: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		si, enc, err := owner.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Upload(si, enc); err != nil {
			t.Fatal(err)
		}
	}
	return owner, srv, docs
}

// saveV1 writes srv as a V1 ("MKSESTO1") snapshot: the V1 magic followed by
// the body every format shares. Nothing writes V1 any more, but files
// written before the checkpoint formats existed must keep loading.
func saveV1(w io.Writer, srv Exporter) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicV1[:]); err != nil {
		return err
	}
	return saveBody(bw, srv)
}

// load restores a snapshot in any format into the default shard layout.
func load(r io.Reader) (*core.Server, error) {
	srv, _, err := LoadCheckpoint(r, core.NewServer)
	return srv, err
}

func TestSaveLoadRoundTrip(t *testing.T) {
	owner, srv, docs := populatedServer(t)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, srv, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	restored, err := load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumDocuments() != srv.NumDocuments() {
		t.Fatalf("restored %d docs, want %d", restored.NumDocuments(), srv.NumDocuments())
	}
	// Parameters survive.
	if restored.Params().R != srv.Params().R || restored.Params().Eta() != srv.Params().Eta() {
		t.Error("parameters not restored")
	}
	// Searches against the restored server behave identically: query a known
	// document's keywords and require it in the results of both.
	target := docs[4]
	user, err := core.NewUser("restore-check", owner.Params(), owner.PublicKey(), owner.RandomTrapdoors())
	if err != nil {
		t.Fatal(err)
	}
	words := target.Keywords()[:2]
	ids := user.BinIDs(words)
	keys, err := owner.TrapdoorKeys(ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := user.InstallTrapdoorKeys(ids, keys); err != nil {
		t.Fatal(err)
	}
	q, err := user.BuildQuery(words)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*core.Server{"original": srv, "restored": restored} {
		matches, err := s.Search(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		found := false
		for _, m := range matches {
			if m.DocID == target.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("%s server did not return the target document", name)
		}
	}
	// Retrieval from the restored server still decrypts.
	fetched, err := restored.Fetch(target.ID)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := user.DecryptDocument(fetched, func(z *big.Int) (*big.Int, error) {
		return owner.BlindDecrypt(z)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, target.Content) {
		t.Error("restored document decrypts to wrong plaintext")
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	_, srv, _ := populatedServer(t)
	path := filepath.Join(t.TempDir(), "cloud.snapshot")
	if err := SaveCheckpointFile(path, srv, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	restored, _, err := LoadCheckpointFile(path, core.NewServer)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumDocuments() != srv.NumDocuments() {
		t.Errorf("restored %d docs, want %d", restored.NumDocuments(), srv.NumDocuments())
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, err := load(bytes.NewReader([]byte("NOTMKSE0rest..."))); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("bad magic gave %v", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, srv, CheckpointMeta{LSN: 1}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncate at several depths: magic, checkpoint header, mid-params,
	// mid-document.
	for _, n := range []int{4, 8, 20, 60, len(full) / 2, len(full) - 1} {
		if _, err := load(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation at %d bytes accepted", n)
		}
	}
}

func TestLoadRejectsCorruptLength(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, srv, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Overwrite the document-count field — after the magic, the three
	// checkpoint header words, seven parameters and three thresholds — with
	// an absurd value.
	const countAt = 8 + 3*8 + 7*8 + 3*8
	if n := binary.BigEndian.Uint64(data[countAt:]); n != uint64(srv.NumDocuments()) {
		t.Fatalf("offset %d holds %d, not the document count %d", countAt, n, srv.NumDocuments())
	}
	for i := 0; i < 8; i++ {
		data[countAt+i] = 0x7f
	}
	if _, err := load(bytes.NewReader(data)); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func TestLoadEmptyServer(t *testing.T) {
	p := core.DefaultParams()
	srv, err := core.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, srv, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	restored, err := load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumDocuments() != 0 {
		t.Errorf("empty snapshot restored %d docs", restored.NumDocuments())
	}
}

// A V1 ("MKSESTO1") snapshot, written by the single-file persistence mode
// before the durable engine existed, must keep loading through
// LoadCheckpointFile after the checkpoint formats' introduction, reporting
// all-zero metadata. Guards the upgrade path of daemons that ran in that
// mode.
func TestV1SnapshotBackCompat(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	if err := saveV1(&buf, srv); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != "MKSESTO1" {
		t.Fatalf("saveV1 wrote magic %q, want the V1 magic", got)
	}
	path := filepath.Join(t.TempDir(), "v1.db")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	restored, meta, err := LoadCheckpointFile(path, core.NewServer)
	if err != nil {
		t.Fatalf("LoadCheckpointFile on V1 snapshot: %v", err)
	}
	if restored.NumDocuments() != srv.NumDocuments() {
		t.Fatalf("restored %d docs, want %d", restored.NumDocuments(), srv.NumDocuments())
	}
	if meta != (CheckpointMeta{}) {
		t.Fatalf("V1 snapshot reported meta %+v, want all-zero", meta)
	}
}

// A PR-4-era V2 ("MKSESTO2") checkpoint — LSN header, no term fields — must
// keep loading after the V3 format's introduction, reporting term zero.
// Guards the upgrade path of data directories written before failover.
func TestV2CheckpointBackCompat(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	// Hand-build a V2 checkpoint: V2 magic + LSN + the V1 body.
	const lsn = uint64(42)
	buf.WriteString("MKSESTO2")
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], lsn)
	buf.Write(hdr[:])
	var body bytes.Buffer
	if err := saveV1(&body, srv); err != nil {
		t.Fatal(err)
	}
	buf.Write(body.Bytes()[8:]) // body without the V1 magic
	restored, meta, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), core.NewServer)
	if err != nil {
		t.Fatalf("LoadCheckpoint on V2 checkpoint: %v", err)
	}
	if meta.LSN != lsn || meta.Term != 0 || meta.TermStart != 0 {
		t.Fatalf("V2 checkpoint meta %+v, want LSN %d and zero term", meta, lsn)
	}
	if restored.NumDocuments() != srv.NumDocuments() {
		t.Fatalf("restored %d docs, want %d", restored.NumDocuments(), srv.NumDocuments())
	}
}

// The checkpoint format carries a distinct magic and round-trips the
// metadata: LSN, promotion term, and the term's start position.
func TestCheckpointRoundTrip(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	meta := CheckpointMeta{LSN: 0xDEADBEEFCAFE, Term: 7, TermStart: 0xBEE5}
	if err := SaveCheckpoint(&buf, srv, meta); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != "MKSESTO3" {
		t.Fatalf("SaveCheckpoint wrote magic %q, want the V3 magic", got)
	}
	restored, gotMeta, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), core.NewServer)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if restored.NumDocuments() != srv.NumDocuments() {
		t.Fatalf("restored %d docs, want %d", restored.NumDocuments(), srv.NumDocuments())
	}
	// A truncated metadata header is a bad snapshot, not a crash.
	if _, _, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()[:20]), core.NewServer); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated checkpoint header = %v, want ErrBadSnapshot", err)
	}
}
