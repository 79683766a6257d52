package service

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"

	"mkse/internal/cluster"
	"mkse/internal/protocol"
	"mkse/internal/trace"
)

// DialCluster connects to the owner daemon and to every partition primary in
// the topology, verifies each server's reported partition identity against
// its position in the config, and enrolls the user. The returned Client
// routes Delete/Retrieve to the partition owning the document ID and fans
// Search/SearchBatch out to every partition, merging the per-partition
// top-τ lists into the global order a single-node scan would produce. Each
// partition's configured replicas serve rotated reads within the lag
// budget, exactly as AddReadReplicas followers do on a one-partition client.
//
// When a partition cannot be reached mid-request, reads fall back to its
// promoted successor or its caught-up replicas; if none answers,
// Search/SearchBatch return the merged results from the surviving
// partitions alongside a *cluster.PartialError naming the dead ones.
func DialCluster(userID, ownerAddr string, cfg cluster.Config) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	oc, err := net.DialTimeout("tcp", ownerAddr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("service: dialing owner: %w", err)
	}
	c := &Client{
		UserID:    userID,
		ownerConn: protocol.NewConn(oc),
		ownerRaw:  oc,
	}
	for i, cp := range cfg.Partitions {
		p := &partition{index: i, count: cfg.P(), primary: link{addr: cp.Primary}}
		for _, a := range cp.Replicas {
			p.replicas = append(p.replicas, &readReplica{link: link{addr: a}})
		}
		c.parts = append(c.parts, p)
		if err := p.primary.dial(DialTimeout); err != nil {
			c.Close()
			return nil, fmt.Errorf("service: dialing partition %d (%s): %w", i, cp.Primary, err)
		}
		if err := verifyPartitionIdentity(p.primary.conn, i, cfg.P()); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.enroll(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// verifyPartitionIdentity performs the partition-map exchange: the server at
// config position i must report identity i/P, so a miswired address list
// (wrong order, wrong count, a server from another cluster) is caught at
// dial time rather than silently misrouting documents — and a promoted
// successor is checked the same way before the client routes to it. A
// server with no cluster identity at all is tolerated only in a
// single-partition topology, where every routing decision is trivially
// correct.
func verifyPartitionIdentity(conn *protocol.Conn, i, p int) error {
	resp, err := conn.Roundtrip(&protocol.Message{ClusterInfoReq: &protocol.ClusterInfoRequest{}})
	if err != nil {
		return fmt.Errorf("service: cluster info from partition %d: %w", i, err)
	}
	ci := resp.ClusterInfoResp
	if ci == nil {
		return fmt.Errorf("service: cluster info response missing from partition %d", i)
	}
	if ci.Partitions == 0 {
		if p == 1 {
			return nil
		}
		return fmt.Errorf("service: partition %d reports no cluster identity, want %d/%d", i, i, p)
	}
	if ci.Partition != i || ci.Partitions != p {
		return fmt.Errorf("service: partition %d reports identity %d/%d, want %d/%d",
			i, ci.Partition, ci.Partitions, i, p)
	}
	return nil
}

// ownerOf returns the partition owning a document ID.
func (c *Client) ownerOf(docID string) *partition {
	return c.parts[cluster.Map{Partitions: len(c.parts)}.Owner(docID)]
}

// scatterLocked sends one request to every partition concurrently through
// route ((*Client).read or (*Client).write) and gathers the responses.
// resps[i] is nil when partition i failed; the returned error is a
// *cluster.PartialError naming each failed partition, or nil when every
// partition answered. Caller holds c.mu; each leg touches only its own
// partition, and the calling goroutine runs partition 0's leg itself, so a
// one-partition request spawns nothing.
//
// Under a sampled trace each partition gets its own "partition" span and a
// shallow copy of the request carrying that span's propagation context —
// the shared Message must not be stamped in place, or every partition would
// claim the same parent. The partition server's echoed spans are imported
// under the partition span, assembling the cross-daemon tree client-side.
func (c *Client) scatterLocked(ctx context.Context, m *protocol.Message,
	route func(*Client, context.Context, *partition, *protocol.Message) (*protocol.Message, error)) ([]*protocol.Message, error) {
	resps := make([]*protocol.Message, len(c.parts))
	errs := make([]error, len(c.parts))
	leg := func(i int) {
		pctx, sp := trace.Start(ctx, "partition")
		req := m
		if sp != nil {
			sp.SetAttr("partition", strconv.Itoa(i))
			cp := *m
			cp.Trace = traceCtxToWire(sp.Context())
			req = &cp
		}
		resps[i], errs[i] = route(c, pctx, c.parts[i], req)
		if sp != nil {
			if errs[i] != nil {
				sp.SetAttr("error", errs[i].Error())
			} else {
				trace.Import(pctx, spansFromWire(sp.TraceID(), resps[i].Spans))
			}
			sp.End()
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(c.parts); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			leg(i)
		}(i)
	}
	leg(0)
	wg.Wait()
	var pe *cluster.PartialError
	for i, err := range errs {
		if err == nil {
			continue
		}
		if pe == nil {
			pe = &cluster.PartialError{Partitions: len(c.parts)}
		}
		pe.Failures = append(pe.Failures, cluster.PartitionFailure{
			Partition: i, Addr: c.parts[i].primary.addr, Err: err,
		})
		resps[i] = nil
	}
	if pe == nil {
		return resps, nil
	}
	return resps, pe
}

// searchLocked is the scatter-gather Search: every partition runs the scan
// over its own corpus slice with its local top-τ cut, and the coordinator
// interleaves the sorted lists and applies the global cut. Because
// partitions hold disjoint document sets, the merged prefix is
// byte-identical to a single-node scan of the whole corpus. When partitions
// failed, the merged result covers the survivors and the
// *cluster.PartialError names the rest — callers choose whether a partial
// answer is usable.
func (c *Client) searchLocked(ctx context.Context, words []string, topK int) ([]Match, error) {
	q, err := c.user.BuildQuery(words)
	if err != nil {
		return nil, err
	}
	sctx, sp := trace.Start(ctx, "scatter")
	resps, perr := c.scatterLocked(sctx, &protocol.Message{SearchReq: &protocol.SearchRequest{
		Query: marshalVector(q),
		TopK:  topK,
	}}, (*Client).read)
	sp.SetAttr("partitions", strconv.Itoa(len(resps)))
	sp.End()
	lists := make([][]protocol.MatchWire, 0, len(resps))
	for i, r := range resps {
		if r == nil {
			continue
		}
		if r.SearchResp == nil {
			return nil, fmt.Errorf("service: search response missing from partition %d", i)
		}
		lists = append(lists, r.SearchResp.Matches)
	}
	return toMatches(cluster.MergeWire(lists, topK)), perr
}

// searchBatchLocked is the scatter-gather SearchBatch: one batch round trip
// per partition, then a per-query merge under the global τ-cut.
func (c *Client) searchBatchLocked(ctx context.Context, wire [][]byte, topK int) ([][]Match, error) {
	sctx, sp := trace.Start(ctx, "scatter")
	resps, perr := c.scatterLocked(sctx, &protocol.Message{SearchBatchReq: &protocol.SearchBatchRequest{
		Queries: wire,
		TopK:    topK,
	}}, (*Client).read)
	sp.SetAttr("partitions", strconv.Itoa(len(resps)))
	sp.End()
	perQuery := make([][][]protocol.MatchWire, len(wire))
	for pi, r := range resps {
		if r == nil {
			continue
		}
		if r.SearchBatchResp == nil {
			return nil, fmt.Errorf("service: batch search response missing from partition %d", pi)
		}
		if got := len(r.SearchBatchResp.Results); got != len(wire) {
			return nil, fmt.Errorf("service: partition %d returned %d result sets for %d queries", pi, got, len(wire))
		}
		for qi, ms := range r.SearchBatchResp.Results {
			perQuery[qi] = append(perQuery[qi], ms)
		}
	}
	out := make([][]Match, len(wire))
	for qi, lists := range perQuery {
		out[qi] = toMatches(cluster.MergeWire(lists, topK))
	}
	return out, perr
}

func toMatches(ws []protocol.MatchWire) []Match {
	out := make([]Match, len(ws))
	for i, m := range ws {
		out[i] = Match{DocID: m.DocID, Rank: m.Rank}
	}
	return out
}

// ClusterStats fetches one StatsResponse per partition primary, in partition
// order, following promotions. When partitions are unreachable, the
// surviving entries are returned (nil at the failed indices) alongside a
// *cluster.PartialError.
func (c *Client) ClusterStats() ([]*protocol.StatsResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resps, perr := c.scatterLocked(context.Background(), &protocol.Message{StatsReq: &protocol.StatsRequest{}}, (*Client).write)
	out := make([]*protocol.StatsResponse, len(resps))
	for i, r := range resps {
		if r == nil {
			continue
		}
		if r.StatsResp == nil {
			return nil, fmt.Errorf("service: stats response missing from partition %d", i)
		}
		out[i] = r.StatsResp
	}
	return out, perr
}

// aggregateStats folds per-partition stats into one cluster-wide view:
// document, shard and cache counters sum; Partition is -1 to mark the
// aggregate; Durable holds only if every partition is durable.
func aggregateStats(parts []*protocol.StatsResponse) *protocol.StatsResponse {
	if len(parts) == 1 && parts[0] != nil {
		// Nothing to fold: one partition's view is the aggregate, its term,
		// WAL and replication fields included.
		agg := *parts[0]
		agg.Partition, agg.Partitions = -1, 1
		return &agg
	}
	agg := &protocol.StatsResponse{Partition: -1, Durable: true}
	for _, st := range parts {
		if st == nil {
			continue
		}
		agg.Partitions++
		agg.NumDocuments += st.NumDocuments
		agg.NumShards += st.NumShards
		agg.Durable = agg.Durable && st.Durable
		agg.Cache.Enabled = agg.Cache.Enabled || st.Cache.Enabled
		agg.Cache.Hits += st.Cache.Hits
		agg.Cache.Misses += st.Cache.Misses
		agg.Cache.Evictions += st.Cache.Evictions
		agg.Cache.Invalidations += st.Cache.Invalidations
		agg.Cache.Entries += st.Cache.Entries
		agg.Cache.Bytes += st.Cache.Bytes
		if st.Cache.MaxBytes > agg.Cache.MaxBytes {
			agg.Cache.MaxBytes = st.Cache.MaxBytes
		}
	}
	return agg
}

// UploadAllCluster pushes prepared documents to the cluster, routing each to
// the partition primary owning its document ID — the owner-side upload of
// Figure 1's offline stage, partitioned.
func UploadAllCluster(cfg cluster.Config, items []UploadItem) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m := cfg.Map()
	groups := make([][]UploadItem, cfg.P())
	for _, it := range items {
		i := m.Owner(it.Index.DocID)
		groups[i] = append(groups[i], it)
	}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := UploadAll(cfg.Partitions[i].Primary, g); err != nil {
			return fmt.Errorf("service: partition %d: %w", i, err)
		}
	}
	return nil
}

// DeleteAllCluster removes documents from the cluster by ID, routing each
// deletion to the owning partition primary.
func DeleteAllCluster(cfg cluster.Config, docIDs []string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m := cfg.Map()
	groups := make([][]string, cfg.P())
	for _, id := range docIDs {
		i := m.Owner(id)
		groups[i] = append(groups[i], id)
	}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := DeleteAll(cfg.Partitions[i].Primary, g); err != nil {
			return fmt.Errorf("service: partition %d: %w", i, err)
		}
	}
	return nil
}

// FetchClusterStats asks every partition primary for its operational
// counters without enrolling a user — the operator's one-shot cluster
// introspection path.
func FetchClusterStats(cfg cluster.Config) ([]*protocol.StatsResponse, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]*protocol.StatsResponse, cfg.P())
	for i, p := range cfg.Partitions {
		st, err := FetchStats(p.Primary)
		if err != nil {
			return nil, fmt.Errorf("service: partition %d (%s): %w", i, p.Primary, err)
		}
		out[i] = st
	}
	return out, nil
}

// AggregateClusterStats folds per-partition stats into one cluster-wide
// summary (see aggregateStats for the folding rules).
func AggregateClusterStats(parts []*protocol.StatsResponse) *protocol.StatsResponse {
	return aggregateStats(parts)
}
