package store

import (
	"bytes"
	"math/big"
	"path/filepath"
	"testing"

	"mkse/internal/core"
	"mkse/internal/corpus"
)

// The full owner round trip: everything that matters — trapdoors, epoch,
// blind decryption of previously encrypted documents, user registry,
// vector-mode dictionary — must survive persistence.
func TestOwnerSaveLoadRoundTrip(t *testing.T) {
	p := core.DefaultParams()
	p.Bins = 16
	owner, err := core.NewOwner(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.RotateBinKeys(); err != nil { // epoch 2, fresh keys
		t.Fatal(err)
	}
	owner.RegisterDictionary([]string{"alpha", "beta", "gamma"})

	doc := &corpus.Document{ID: "persist-doc", TermFreqs: map[string]int{"alpha": 3}, Content: []byte("contents survive restarts")}
	_, enc, err := owner.Prepare(doc)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser("persist-user", p, owner.PublicKey(), owner.RandomTrapdoors())
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.RegisterUser(user.ID, user.PublicKey()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveOwner(&buf, owner); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadOwner(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Same trapdoors (bin keys survived).
	if !restored.Trapdoor("alpha").Equal(owner.Trapdoor("alpha")) {
		t.Error("trapdoors differ after restore")
	}
	// Same epoch.
	if restored.Epoch() != owner.Epoch() {
		t.Errorf("epoch %d after restore, want %d", restored.Epoch(), owner.Epoch())
	}
	// Same decoy trapdoors (random words + keys survived).
	a, b := owner.RandomTrapdoors(), restored.RandomTrapdoors()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("decoy trapdoor %d differs after restore", i)
		}
	}
	// Blind decryption of a pre-restart document still works.
	pt, err := user.DecryptDocument(&core.EncryptedDocument{ID: doc.ID, Ciphertext: enc.Ciphertext, EncKey: enc.EncKey},
		func(z *big.Int) (*big.Int, error) { return restored.BlindDecrypt(z) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, doc.Content) {
		t.Error("pre-restart document does not decrypt after restore")
	}
	// User registry survived: the old signature still verifies.
	msg := []byte("post-restart request")
	sig, err := user.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.VerifyUser(user.ID, msg, sig); err != nil {
		t.Errorf("registered user rejected after restore: %v", err)
	}
	// Vector-mode dictionary survived.
	if _, err := restored.TrapdoorVectors(user.BinIDs([]string{"alpha"})); err != nil {
		t.Errorf("vector mode unavailable after restore: %v", err)
	}
	// Document key bookkeeping survived.
	if _, ok := restored.DocumentKey(doc.ID); !ok {
		t.Error("document key missing after restore")
	}
}

func TestOwnerSaveLoadFile(t *testing.T) {
	p := core.DefaultParams()
	p.Bins = 8
	owner, err := core.NewOwner(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "owner.state")
	if err := SaveOwnerFile(path, owner); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadOwnerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Trapdoor("w").Equal(owner.Trapdoor("w")) {
		t.Error("file round trip lost key material")
	}
}

func TestLoadOwnerRejectsServerSnapshot(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, srv, CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOwner(&buf); err == nil {
		t.Error("server snapshot accepted as owner state")
	}
}

func TestLoadOwnerRejectsGarbage(t *testing.T) {
	if _, err := LoadOwner(bytes.NewReader([]byte("MKSEOWN1 not gob at all"))); err == nil {
		t.Error("garbage owner state accepted")
	}
	if _, err := LoadOwner(bytes.NewReader(nil)); err == nil {
		t.Error("empty owner state accepted")
	}
}
