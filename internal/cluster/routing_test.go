package cluster_test

import (
	"errors"
	"testing"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/corpus"
	"mkse/internal/harness"
	"mkse/internal/rank"
	"mkse/internal/service"
)

// Routing suite: every partition of a fat client gets the same router —
// promotion-following on the primary, lag-checked replicas — so the
// behaviours a single-node client always had hold per partition too.

// ownedDocs returns every corpus document the map assigns to a partition.
func (f *faultCluster) ownedDocs(partition int) []*corpus.Document {
	m := f.cfg.Map()
	var out []*corpus.Document
	for _, d := range f.docs {
		if m.Owner(d.ID) == partition {
			out = append(out, d)
		}
	}
	return out
}

func hasDoc(ms []service.Match, id string) bool {
	for _, m := range ms {
		if m.DocID == id {
			return true
		}
	}
	return false
}

// A partition primary killed mid-write and replaced by its promoted follower
// must keep serving the same client: the next mutation and search on that
// partition's documents follow the promotion, with no redial or restart.
func TestClusterClientFollowsPartitionPromotion(t *testing.T) {
	owner := propertyOwner(t, rank.Levels{1, 5, 10}, 205)
	f := startFaultCluster(t, owner, 2, 1, harness.Options{Durable: true, Followers: 1}, "promote-user")
	if err := f.clu.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	docs := f.ownedDocs(1)
	if len(docs) < 3 {
		t.Fatalf("partition 1 owns %d documents, want at least 3", len(docs))
	}
	var items []service.UploadItem
	for _, d := range docs {
		si, enc, err := owner.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, service.UploadItem{Index: si, Doc: enc})
	}

	// A writer re-uploads partition 1's documents until its primary dies.
	primary, follower := f.clu.Primaries[1], f.clu.Followers[1][0]
	writing := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			if service.UploadAll(primary.Addr, items) != nil {
				return
			}
			if i == 1 {
				close(writing)
			}
		}
	}()
	select {
	case <-writing:
	case <-stopped:
		t.Fatal("writer failed before the primary was killed")
	}
	f.proxy.Sever()
	primary.L.Close()
	primary.Svc.Drain(0)
	primary.Eng.Crash()
	<-stopped
	if _, err := service.Promote(follower.Addr, 1); err != nil {
		t.Fatalf("promote: %v", err)
	}

	victim, kept := docs[0], docs[1]
	if err := f.client.Delete(victim.ID); err != nil {
		t.Fatalf("delete on the promoted partition: %v", err)
	}
	if _, err := follower.Eng.Server().Fetch(victim.ID); err == nil {
		t.Errorf("delete of %s did not reach the promoted primary", victim.ID)
	}
	matches, err := f.client.Search(kept.Keywords()[:2], 0)
	if err != nil {
		t.Fatalf("search on the promoted partition: %v", err)
	}
	if !hasDoc(matches, kept.ID) {
		t.Errorf("search missed %s, held by the promoted partition", kept.ID)
	}
	matches, err = f.client.Search(victim.Keywords()[:2], 0)
	if err != nil {
		t.Fatalf("search for the deleted document: %v", err)
	}
	if hasDoc(matches, victim.ID) {
		t.Errorf("deleted document %s still served", victim.ID)
	}
}

// A read whose primary is severed while the partition's only replica has
// fallen behind must fail the partition with a typed partial error, not
// serve the stale replica's rows as a complete answer.
func TestLaggingReplicaNeverServesClusterRead(t *testing.T) {
	owner := propertyOwner(t, rank.Levels{1, 5, 10}, 206)
	f := startFaultCluster(t, owner, 2, 1, harness.Options{Durable: true, Followers: 1}, "lag-user")
	if err := f.clu.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.client.MaxReplicaLag = 1

	// Stop the follower's stream, then acknowledge writes on the primary
	// past the lag budget: the follower still holds the deleted documents.
	f.clu.Followers[1][0].Rep.Close()
	docs := f.ownedDocs(1)
	victims := []string{docs[0].ID, docs[1].ID}
	if err := service.DeleteAll(f.clu.Primaries[1].Addr, victims); err != nil {
		t.Fatal(err)
	}

	f.proxy.Sever()
	matches, err := f.client.Search(docs[0].Keywords()[:2], 0)
	var partial *cluster.PartialError
	if !errors.As(err, &partial) {
		t.Fatalf("read with a severed primary and a lagging replica: got %v, want *cluster.PartialError", err)
	}
	if len(partial.Failures) != 1 || partial.Failures[0].Partition != 1 {
		t.Errorf("partial error blames %+v, want partition 1", partial.Failures)
	}
	if hasDoc(matches, docs[0].ID) {
		t.Errorf("deleted document %s served from the lagging replica", docs[0].ID)
	}
}
