package mkse

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"

	"mkse/internal/analysis"
	"mkse/internal/core"
	"mkse/internal/rank"
)

var (
	sysOnce sync.Once
	sysVal  *System
	sysErr  error
)

// sharedSystem builds one ranked System reused across facade tests.
func sharedSystem(t *testing.T) *System {
	sysOnce.Do(func() {
		p := DefaultParams()
		p.Levels = rank.Levels{1, 5, 10}
		p.Bins = 64
		sysVal, sysErr = NewSystem(p)
		if sysErr != nil {
			return
		}
		docs := map[string]string{
			"finance-q1":  "cloud revenue grew while server costs fell in the first quarter",
			"finance-q2":  "cloud revenue flat but storage demand grew in the second quarter",
			"eng-design":  "the encrypted index design uses trapdoor keys and ranking levels",
			"eng-history": "legacy search server rewrite postponed",
		}
		for id, text := range docs {
			if sysErr = sysVal.AddDocument(id, []byte(text)); sysErr != nil {
				return
			}
		}
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal
}

func TestSystemSearchAndRetrieve(t *testing.T) {
	s := sharedSystem(t)
	alice, err := s.NewUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := s.Search(alice, []string{"cloud", "revenue"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, m := range matches {
		ids[m.DocID] = true
	}
	if !ids["finance-q1"] || !ids["finance-q2"] {
		t.Errorf("finance documents missing from matches: %v", matches)
	}
	pt, err := s.Retrieve(alice, "finance-q1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(pt, []byte("quarterly")) && !bytes.Contains(pt, []byte("first quarter")) {
		t.Errorf("retrieved plaintext unexpected: %q", pt)
	}
}

func TestSystemTopK(t *testing.T) {
	s := sharedSystem(t)
	bob, err := s.NewUser("bob")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := s.Search(bob, []string{"grew"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Errorf("topK=1 returned %d matches", len(matches))
	}
}

func TestSystemRejectsEmptyDocument(t *testing.T) {
	s := sharedSystem(t)
	if err := s.AddDocument("empty", []byte("!!! ...")); err == nil {
		t.Error("keyword-less document accepted")
	}
}

func TestSystemSearchUnknownKeywordFindsNothing(t *testing.T) {
	s := sharedSystem(t)
	carol, err := s.NewUser("carol")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := s.Search(carol, []string{"zzzznonexistent"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// False accepts are possible in principle but vanishingly rare at these
	// parameters with 4 documents.
	if len(matches) != 0 {
		t.Logf("note: %d false accepts for unknown keyword", len(matches))
	}
}

func TestSystemMultipleUsersIndependent(t *testing.T) {
	s := sharedSystem(t)
	u1, err := s.NewUser("indep-1")
	if err != nil {
		t.Fatal(err)
	}
	u2, err := s.NewUser("indep-2")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s.Search(u1, []string{"encrypted"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Search(u2, []string{"encrypted"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	has := func(ms []Match, id string) bool {
		for _, m := range ms {
			if m.DocID == id {
				return true
			}
		}
		return false
	}
	if !has(m1, "eng-design") || !has(m2, "eng-design") {
		t.Error("both users should find eng-design")
	}
}

func TestSystemDuplicateUser(t *testing.T) {
	s := sharedSystem(t)
	if _, err := s.NewUser("dup-user"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewUser("dup-user"); err == nil {
		t.Error("duplicate user enrollment accepted")
	}
}

func TestTokenizeFacade(t *testing.T) {
	tf := Tokenize("Cloud CLOUD cloud!", 3)
	if tf["cloud"] != 3 {
		t.Errorf("Tokenize facade broken: %v", tf)
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.R != 448 || p.D != 6 || p.U != 60 || p.V != 30 || p.RSABits != 1024 {
		t.Errorf("DefaultParams diverge from the paper: %+v", p)
	}
}

// AddDocumentWithKeywords must index each keyword at exactly the levels its
// term frequency reaches. Every probe document holds "hotword" at tf 12
// (levels 1–3) and a cold keyword of its own at tf 1 (level 1 only), so:
//
//   - a hotword query ranks every probe 3, every time;
//   - a probe's cold-keyword query always returns it: Equation 3 has no
//     false rejects;
//   - that query ranks the probe above 1 only on a false accept, when every
//     zero of the cold keyword's trapdoor falls on a zero of the probe's
//     level-2 index (hotword plus the U random keywords). The query's decoys
//     are a subset of those U, so they cannot cause or prevent it.
//     analysis.Model.FalseAcceptProbability(1, U, 1) is its per-probe
//     probability p, and the count over all probes must stay within the
//     Bernstein upper tail of Binomial(probes, p) at δ = 1e-6.
//
// The owner's keys and every query's decoy subset are seeded, so each run
// sees the same trapdoors. A single probe under random owner keys failed
// whenever those keys happened to false-accept its cold keyword.
func TestAddDocumentWithKeywordsRanked(t *testing.T) {
	p := DefaultParams()
	p.Levels = rank.Levels{1, 5, 10}
	p.Bins = 64
	owner, err := core.NewOwnerDeterministic(p, 7, 11)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewCloudServer(p)
	if err != nil {
		t.Fatal(err)
	}
	s := &System{Owner: owner, Cloud: cloud}
	const probes = 200
	probeID := func(i int) string { return fmt.Sprintf("ranked-doc-%03d", i) }
	coldWord := func(i int) string { return fmt.Sprintf("coldword%03d", i) }
	for i := 0; i < probes; i++ {
		tf := map[string]int{"hotword": 12, coldWord(i): 1}
		if err := s.AddDocumentWithKeywords(probeID(i), tf, []byte("body")); err != nil {
			t.Fatal(err)
		}
	}
	u, err := s.NewUser("rank-checker")
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 8; seed++ {
		u.SeedQueryRNG(seed)
		hot, err := s.Search(u, []string{"hotword"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(hot) != probes {
			t.Fatalf("hotword query %d returned %d documents, want all %d probes", seed, len(hot), probes)
		}
		for _, m := range hot {
			if m.Rank != 3 {
				t.Fatalf("hotword query %d ranks %s at %d, want 3 (tf 12 >= threshold 10)", seed, m.DocID, m.Rank)
			}
		}
	}

	falseAccepts := 0
	for i := 0; i < probes; i++ {
		u.SeedQueryRNG(int64(1000 + i))
		cold, err := s.Search(u, []string{coldWord(i)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rank := 0
		for _, m := range cold {
			if m.DocID == probeID(i) {
				rank = m.Rank
			}
		}
		if rank == 0 {
			t.Fatalf("%s query missed %s, which holds it (false reject)", coldWord(i), probeID(i))
		}
		if rank > 1 {
			falseAccepts++
		}
	}
	model, err := analysis.NewModel(p.R, p.D)
	if err != nil {
		t.Fatal(err)
	}
	mean := probes * model.FalseAcceptProbability(1, p.U, 1)
	l := math.Log(1e6) // ln(1/δ)
	bound := mean + l/3 + math.Sqrt(l*l/9+2*l*mean)
	if float64(falseAccepts) > bound {
		t.Errorf("%d of %d cold-keyword queries ranked their probe above 1; model mean %.1f, bound %.1f",
			falseAccepts, probes, mean, bound)
	}
}

// The networked facade end to end: daemons via the re-exported service
// types, client via mkse.Dial, upload via mkse.UploadAll.
func TestNetworkedFacade(t *testing.T) {
	params := DefaultParams()
	params.Bins = 32
	owner, err := NewOwner(params, 5)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewCloudServer(params)
	if err != nil {
		t.Fatal(err)
	}
	ownerL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ownerL.Close()
	cloudL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudL.Close()
	go func() { _ = (&OwnerService{Owner: owner}).Serve(ownerL) }()
	go func() { _ = (&CloudService{Server: cloud}).Serve(cloudL) }()

	doc := &Document{
		ID:        "facade-doc",
		TermFreqs: Tokenize("the facade works over tcp sockets", 3),
		Content:   []byte("the facade works over tcp sockets"),
	}
	si, enc, err := owner.Prepare(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := UploadAll(cloudL.Addr().String(), []UploadItem{{Index: si, Doc: enc}}); err != nil {
		t.Fatal(err)
	}

	client, err := Dial("facade-user", ownerL.Addr().String(), cloudL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	matches, err := client.Search([]string{"facade", "sockets"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].DocID != "facade-doc" {
		t.Fatalf("facade search failed: %v", matches)
	}
	pt, err := client.Retrieve("facade-doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(pt, []byte("facade works")) {
		t.Errorf("retrieved %q", pt)
	}
}

func ExampleSystem() {
	sys, err := NewSystem(DefaultParams())
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := sys.AddDocument("memo", []byte("the merger closes friday")); err != nil {
		fmt.Println(err)
		return
	}
	user, err := sys.NewUser("alice")
	if err != nil {
		fmt.Println(err)
		return
	}
	matches, err := sys.Search(user, []string{"merger"}, 10)
	if err != nil {
		fmt.Println(err)
		return
	}
	pt, err := sys.Retrieve(user, matches[0].DocID)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(string(pt))
	// Output: the merger closes friday
}

func TestSystemSearchBatch(t *testing.T) {
	s := sharedSystem(t)
	u, err := s.NewUser("batcher")
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]string{
		{"cloud", "revenue"},
		{"trapdoor"},
	}
	results, err := s.SearchBatch(u, queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d result sets, want 2", len(results))
	}
	ids := make(map[string]bool)
	for _, m := range results[0] {
		ids[m.DocID] = true
	}
	if !ids["finance-q1"] || !ids["finance-q2"] {
		t.Errorf("batch query 0 missed finance documents: %v", results[0])
	}
	found := false
	for _, m := range results[1] {
		if m.DocID == "eng-design" {
			found = true
		}
	}
	if !found {
		t.Errorf("batch query 1 missed eng-design: %v", results[1])
	}
}

// DeleteDocument removes a document from search and retrieval; the System
// facade surfaces the server's not-found error for unknown IDs. Uses a
// private System so the shared corpus stays intact.
func TestSystemDeleteDocument(t *testing.T) {
	p := DefaultParams()
	p.Bins = 64
	s, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument("keep", []byte("shared cloud revenue report for the board")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocument("drop", []byte("shared cloud revenue draft to retract later")); err != nil {
		t.Fatal(err)
	}
	u, err := s.NewUser("deleter")
	if err != nil {
		t.Fatal(err)
	}
	matches, err := s.Search(u, []string{"shared", "revenue"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("expected both documents before deletion, got %d", len(matches))
	}
	if err := s.DeleteDocument("drop"); err != nil {
		t.Fatal(err)
	}
	matches, err = s.Search(u, []string{"shared", "revenue"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].DocID != "keep" {
		t.Fatalf("after deletion got %+v, want only %q", matches, "keep")
	}
	if _, err := s.Retrieve(u, "drop"); err == nil {
		t.Fatal("Retrieve of deleted document succeeded")
	}
	if err := s.DeleteDocument("drop"); err == nil {
		t.Fatal("deleting a deleted document succeeded")
	}
}
