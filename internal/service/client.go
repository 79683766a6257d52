package service

import (
	"context"
	"fmt"
	"math/big"
	"net"
	"strconv"
	"sync"
	"time"

	"mkse/internal/bitindex"
	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/protocol"
	"mkse/internal/trace"
)

// DialTimeout bounds every owner/cloud connection attempt this package
// makes (Dial, the raw owner-side helpers, replication streams, and the
// failover verbs), so a black-holed address fails fast instead of hanging
// for the kernel's connect timeout. Override before dialing.
var DialTimeout = 5 * time.Second

// Client drives the user's side of the full protocol against a remote owner
// daemon and one or more cloud partitions. It wraps a core.User created
// during Enroll. A Client serializes its protocol exchanges and is safe for
// concurrent use.
//
// Every request goes through one per-partition router; a single node is a
// one-partition cluster. Reads (Search, SearchBatch, Retrieve) rotate across
// each partition's healthy, caught-up replicas and fall back to the primary
// when a replica is down, lagging past MaxReplicaLag, or fails mid-request.
// Mutations (Delete) and Stats go to the primary. A lost primary is
// followed to its promoted successor among the replicas.
type Client struct {
	UserID string

	// VectorMode requests precomputed per-keyword trapdoor vectors instead
	// of bin keys (Section 4.2's alternative delivery; requires the owner
	// to have registered a dictionary). Set before the first search.
	VectorMode bool

	// MaxReplicaLag is the most records a replica may trail the primary and
	// still serve this client's reads (0 = DefaultMaxReplicaLag). Set
	// before the first search.
	MaxReplicaLag uint64

	// ReplicaProbeEvery is how often a replica's position is re-checked
	// with a status request before trusting it with reads (0 = 1s). Set
	// before the first search.
	ReplicaProbeEvery time.Duration

	// PartitionTimeout bounds every exchange with one partition's servers
	// (0 = DefaultPartitionTimeout). Set before the first request.
	PartitionTimeout time.Duration

	// Tracer, when set, samples this client's searches into distributed
	// traces: the coordinator records the root span, scatter/partition/
	// attempt children, and grafts in the spans each partition server
	// echoes on its response — the whole cross-daemon tree assembles
	// client-side. Use TraceSearch to force-sample one search regardless of
	// the sample rate.
	Tracer *trace.Tracer

	mu        sync.Mutex
	ownerConn *protocol.Conn
	ownerRaw  net.Conn
	user      *core.User
	parts     []*partition // in partition order; documents route by cluster.Map
}

// Dial connects to the owner daemon and a single cloud daemon — a
// one-partition cluster — and enrolls the user with the data owner,
// receiving the scheme parameters, the owner's public key and the
// random-keyword trapdoors.
func Dial(userID, ownerAddr, cloudAddr string) (*Client, error) {
	return DialCluster(userID, ownerAddr, cluster.Config{Partitions: []cluster.Partition{{Primary: cloudAddr}}})
}

// enroll bootstraps the user. The signature key pair must exist before the
// first signed request, but the core.User needs the scheme parameters the
// enrollment response delivers — so: generate the key, enroll its public
// half, then build the User around the key and the returned parameters.
func (c *Client) enroll() error {
	signKey, err := core.NewSigningKey(core.DefaultParams().RSABits)
	if err != nil {
		return fmt.Errorf("service: generating signature key: %w", err)
	}
	resp, err := c.ownerConn.Roundtrip(&protocol.Message{EnrollReq: &protocol.EnrollRequest{
		UserID:  c.UserID,
		UserPub: protocol.FromPublicKey(signKey.Public()),
	}})
	if err != nil {
		return fmt.Errorf("service: enrolling: %w", err)
	}
	if resp.EnrollResp == nil {
		return fmt.Errorf("service: enroll response missing")
	}
	params, err := resp.EnrollResp.Params.ToParams()
	if err != nil {
		return fmt.Errorf("service: invalid parameters from owner: %w", err)
	}
	ownerPub, err := resp.EnrollResp.OwnerPub.ToPublicKey()
	if err != nil {
		return fmt.Errorf("service: invalid owner key: %w", err)
	}
	rts := make([]*bitindex.Vector, len(resp.EnrollResp.RandomTrapdoors))
	for i, raw := range resp.EnrollResp.RandomTrapdoors {
		v, err := unmarshalVector(raw)
		if err != nil {
			return fmt.Errorf("service: invalid random trapdoor %d: %w", i, err)
		}
		rts[i] = v
	}
	c.user, err = core.NewUserWithKey(c.UserID, params, ownerPub, rts, signKey)
	if err != nil {
		return fmt.Errorf("service: building user state: %w", err)
	}
	return nil
}

// User exposes the underlying core.User (for cost inspection in experiments).
func (c *Client) User() *core.User { return c.user }

// Close tears down the owner connection and every partition's primary and
// replica connections.
func (c *Client) Close() error {
	var err error
	if c.ownerRaw != nil {
		err = c.ownerRaw.Close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.parts {
		p.primary.close()
		for _, r := range p.replicas {
			r.close()
		}
	}
	return err
}

// AddReadReplicas registers followers of a one-partition client's server
// (the Dial case) to fan Search, SearchBatch and Retrieve traffic across.
// Connections are dialed lazily and re-dialed after failures; an
// unreachable or lagging replica routes reads back to the primary, with
// failing replicas benched on an exponential back-off so a dead address
// costs at most an occasional short dial timeout, not a stall per search.
// A partitioned client takes each partition's replicas from its
// cluster.Config; on one this call does nothing.
func (c *Client) AddReadReplicas(addrs ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.parts) != 1 {
		return
	}
	p := c.parts[0]
	for _, a := range addrs {
		p.replicas = append(p.replicas, &readReplica{link: link{addr: a}})
	}
}

// ReadDistribution reports how many read requests this client has sent to
// each server, keyed by replica address, plus "primary" for the primaries.
func (c *Client) ReadDistribution() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64)
	for _, p := range c.parts {
		for k, v := range p.reads {
			out[k] += v
		}
	}
	return out
}

// EnsureTrapdoors fetches trapdoor material for any of the given keywords
// the user does not already cover, signing the request (step 1 of Figure
// 1). It is a no-op when everything is cached — the paper's point that
// trapdoors are reusable across queries. If the response reveals a key
// rotation (new epoch, Section 4.3), all cached material is discarded, the
// decoy trapdoors are refreshed, and the new-epoch material from the same
// response is installed.
func (c *Client) EnsureTrapdoors(words []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var missing []string
	for _, w := range words {
		if !c.user.HasTrapdoorFor(w) {
			missing = append(missing, w)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	binIDs := c.user.BinIDs(missing)
	sig, err := c.user.Sign(protocol.SignableTrapdoor(c.UserID, binIDs))
	if err != nil {
		return err
	}
	resp, err := c.ownerConn.Roundtrip(&protocol.Message{TrapdoorReq: &protocol.TrapdoorRequest{
		UserID:      c.UserID,
		BinIDs:      binIDs,
		WantVectors: c.VectorMode,
		Sig:         sig,
	}})
	if err != nil {
		return fmt.Errorf("service: trapdoor request: %w", err)
	}
	td := resp.TrapdoorResp
	if td == nil {
		return fmt.Errorf("service: trapdoor response missing")
	}
	if td.Epoch != c.user.KeyEpoch() {
		expired, err := c.user.ObserveEpoch(td.Epoch)
		if err != nil {
			return err
		}
		if expired {
			if err := c.refreshEnrollmentLocked(); err != nil {
				return err
			}
		}
	}
	if c.VectorMode {
		vs := make(map[string]*bitindex.Vector, len(td.Vectors))
		for w, raw := range td.Vectors {
			v, err := unmarshalVector(raw)
			if err != nil {
				return fmt.Errorf("service: trapdoor vector for %q: %w", w, err)
			}
			vs[w] = v
		}
		return c.user.InstallTrapdoorVectors(vs)
	}
	return c.user.InstallTrapdoorKeys(td.BinIDs, td.Keys)
}

// refreshEnrollmentLocked re-fetches the decoy-trapdoor package after a key
// rotation. Caller holds c.mu.
func (c *Client) refreshEnrollmentLocked() error {
	sig, err := c.user.Sign(protocol.SignableRefresh(c.UserID))
	if err != nil {
		return err
	}
	resp, err := c.ownerConn.Roundtrip(&protocol.Message{RefreshReq: &protocol.RefreshRequest{
		UserID: c.UserID,
		Sig:    sig,
	}})
	if err != nil {
		return fmt.Errorf("service: enrollment refresh: %w", err)
	}
	if resp.RefreshResp == nil {
		return fmt.Errorf("service: refresh response missing")
	}
	rts := make([]*bitindex.Vector, len(resp.RefreshResp.RandomTrapdoors))
	for i, raw := range resp.RefreshResp.RandomTrapdoors {
		v, err := unmarshalVector(raw)
		if err != nil {
			return fmt.Errorf("service: refreshed random trapdoor %d: %w", i, err)
		}
		rts[i] = v
	}
	return c.user.RefreshEnrollment(rts)
}

// Match mirrors core.Match for remote results.
type Match struct {
	DocID string
	Rank  int
}

// Search builds a randomized query index for the keywords and submits it to
// the cloud (step 2 of Figure 1), returning up to topK rank-ordered matches.
func (c *Client) Search(words []string, topK int) ([]Match, error) {
	out, _, err := c.search(words, topK, false)
	return out, err
}

// TraceSearch is Search with its trace forced on: the search is sampled
// regardless of the client Tracer's rate, and the assembled span tree —
// coordinator root, per-partition fan-out, and every span the servers
// echoed back — is returned alongside the matches (render it with
// trace.FormatTree). The client must have a Tracer set.
func (c *Client) TraceSearch(words []string, topK int) ([]Match, []trace.Span, error) {
	if c.Tracer == nil {
		return nil, nil, fmt.Errorf("service: TraceSearch requires a client Tracer")
	}
	return c.search(words, topK, true)
}

// search is the one search path: with a Tracer set the request may be
// sampled (always, when forced) under a "client:search" root span, and the
// returned spans are the trace as assembled at the coordinator.
func (c *Client) search(words []string, topK int, force bool) ([]Match, []trace.Span, error) {
	if err := c.EnsureTrapdoors(words); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx, root := c.Tracer.StartRequest(context.Background(), "client:search", force)
	if root != nil {
		root.SetAttr("keywords", strconv.Itoa(len(words)))
		root.SetAttr("topk", strconv.Itoa(topK))
	}
	out, err := c.searchLocked(ctx, words, topK)
	endRoot(root, err)
	return out, root.Spans(), err
}

// SearchBatch builds one randomized query index per keyword set and submits
// them all in a single round trip per partition; each cloud evaluates the
// batch in one sharded pass. Result i corresponds to queries[i], each
// truncated to topK.
func (c *Client) SearchBatch(queries [][]string, topK int) ([][]Match, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	if err := c.EnsureTrapdoors(KeywordUnion(queries)); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	wire := make([][]byte, len(queries))
	for i, words := range queries {
		q, err := c.user.BuildQuery(words)
		if err != nil {
			return nil, fmt.Errorf("service: batch query %d: %w", i, err)
		}
		wire[i] = marshalVector(q)
	}
	ctx, root := c.Tracer.StartRequest(context.Background(), "client:searchbatch", false)
	if root != nil {
		root.SetAttr("queries", strconv.Itoa(len(queries)))
		root.SetAttr("topk", strconv.Itoa(topK))
	}
	out, err := c.searchBatchLocked(ctx, wire, topK)
	endRoot(root, err)
	return out, err
}

// endRoot closes a request's root span, noting its error. Nil-safe.
func endRoot(root *trace.ActiveSpan, err error) {
	if root == nil {
		return
	}
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()
}

// KeywordUnion deduplicates the keywords of a query batch, so a word shared
// by many queries costs one trapdoor derivation and transfer, not one per
// query.
func KeywordUnion(queries [][]string) []string {
	seen := make(map[string]bool)
	var union []string
	for _, words := range queries {
		for _, w := range words {
			if !seen[w] {
				seen[w] = true
				union = append(union, w)
			}
		}
	}
	return union
}

// Retrieve fetches an encrypted document from the partition owning it (step
// 3) and runs the blinded decryption protocol with the owner (step 4),
// returning the plaintext.
func (c *Client) Retrieve(docID string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.read(context.Background(), c.ownerOf(docID),
		&protocol.Message{FetchReq: &protocol.FetchRequest{DocID: docID}})
	if err != nil {
		return nil, fmt.Errorf("service: fetch: %w", err)
	}
	if resp.FetchResp == nil {
		return nil, fmt.Errorf("service: fetch response missing")
	}
	doc := &core.EncryptedDocument{
		ID:         resp.FetchResp.DocID,
		Ciphertext: resp.FetchResp.Ciphertext,
		EncKey:     resp.FetchResp.EncKey,
	}
	return c.user.DecryptDocument(doc, func(z *big.Int) (*big.Int, error) {
		zb := z.Bytes()
		sig, err := c.user.Sign(protocol.SignableBlindDecrypt(c.UserID, zb))
		if err != nil {
			return nil, err
		}
		r, err := c.ownerConn.Roundtrip(&protocol.Message{BlindDecryptReq: &protocol.BlindDecryptRequest{
			UserID: c.UserID,
			Z:      zb,
			Sig:    sig,
		}})
		if err != nil {
			return nil, err
		}
		if r.BlindDecryptResp == nil {
			return nil, fmt.Errorf("service: blind-decrypt response missing")
		}
		return new(big.Int).SetBytes(r.BlindDecryptResp.ZBar), nil
	})
}

// Stats fetches the cloud's operational counters — document and shard
// counts, mutation epoch, WAL position and replication lag, and the
// query-result cache counters — from every partition primary, whose answers
// describe the servers this client mutates, folded into one view (see
// aggregateStats; a one-partition client gets its node's own view).
func (c *Client) Stats() (*protocol.StatsResponse, error) {
	parts, err := c.ClusterStats()
	if err != nil {
		return nil, err
	}
	return aggregateStats(parts), nil
}

// FetchStats asks any cloud daemon (primary or follower) for its
// operational counters without enrolling a user — the operator's one-shot
// introspection path, mirroring UploadAll/DeleteAll's raw dials.
func FetchStats(cloudAddr string) (*protocol.StatsResponse, error) {
	conn, err := net.DialTimeout("tcp", cloudAddr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("service: dialing cloud: %w", err)
	}
	defer conn.Close()
	resp, err := protocol.NewConn(conn).Roundtrip(&protocol.Message{StatsReq: &protocol.StatsRequest{}})
	if err != nil {
		return nil, fmt.Errorf("service: stats: %w", err)
	}
	if resp.StatsResp == nil {
		return nil, fmt.Errorf("service: stats response missing")
	}
	return resp.StatsResp, nil
}

// Delete asks the primary of the partition owning a document to remove it.
// In the paper's model removal is the data owner's act; the client method
// exists for deployments where the owner drives the cloud through the same
// connection pair.
func (c *Client) Delete(docID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.write(context.Background(), c.ownerOf(docID),
		&protocol.Message{DeleteReq: &protocol.DeleteRequest{DocID: docID}})
	if err != nil {
		return fmt.Errorf("service: delete: %w", err)
	}
	if resp.DeleteResp == nil {
		return fmt.Errorf("service: delete response missing")
	}
	return nil
}

// DeleteAll removes documents from the cloud daemon by ID — the owner-side
// retraction mirroring UploadAll.
func DeleteAll(cloudAddr string, docIDs []string) error {
	conn, err := net.DialTimeout("tcp", cloudAddr, DialTimeout)
	if err != nil {
		return fmt.Errorf("service: dialing cloud: %w", err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	for _, id := range docIDs {
		resp, err := pc.Roundtrip(&protocol.Message{DeleteReq: &protocol.DeleteRequest{DocID: id}})
		if err != nil {
			return fmt.Errorf("service: deleting %q: %w", id, err)
		}
		if resp.DeleteResp == nil {
			return fmt.Errorf("service: delete response missing for %q", id)
		}
	}
	return nil
}

// UploadAll pushes prepared documents from the owner to the cloud daemon —
// the owner-side upload of Figure 1's offline stage.
func UploadAll(cloudAddr string, items []UploadItem) error {
	conn, err := net.DialTimeout("tcp", cloudAddr, DialTimeout)
	if err != nil {
		return fmt.Errorf("service: dialing cloud: %w", err)
	}
	defer conn.Close()
	pc := protocol.NewConn(conn)
	for _, it := range items {
		levels := make([][]byte, len(it.Index.Levels))
		for i, l := range it.Index.Levels {
			levels[i] = marshalVector(l)
		}
		resp, err := pc.Roundtrip(&protocol.Message{UploadReq: &protocol.UploadRequest{
			DocID:      it.Index.DocID,
			Levels:     levels,
			Ciphertext: it.Doc.Ciphertext,
			EncKey:     it.Doc.EncKey,
		}})
		if err != nil {
			return fmt.Errorf("service: uploading %q: %w", it.Index.DocID, err)
		}
		if resp.UploadResp == nil {
			return fmt.Errorf("service: upload response missing for %q", it.Index.DocID)
		}
	}
	return nil
}

// UploadItem pairs a search index with its encrypted document.
type UploadItem struct {
	Index *core.SearchIndex
	Doc   *core.EncryptedDocument
}

// FetchReplicaStatus asks any cloud daemon where it stands in the
// replicated log — position, term, role, and connected followers — in one
// raw round trip.
func FetchReplicaStatus(cloudAddr string) (*protocol.ReplicaStatusResponse, error) {
	conn, err := net.DialTimeout("tcp", cloudAddr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("service: dialing cloud: %w", err)
	}
	defer conn.Close()
	resp, err := protocol.NewConn(conn).Roundtrip(&protocol.Message{ReplicaStatusReq: &protocol.ReplicaStatusRequest{}})
	if err != nil {
		return nil, fmt.Errorf("service: replica status: %w", err)
	}
	if resp.ReplicaStatusResp == nil {
		return nil, fmt.Errorf("service: replica status response missing")
	}
	return resp.ReplicaStatusResp, nil
}

// Promote asks the daemon at cloudAddr to become primary at the given
// promotion term (see protocol.PromoteRequest). The term must exceed the
// daemon's current one; retries of the same term are idempotent.
func Promote(cloudAddr string, term uint64) (*protocol.PromoteResponse, error) {
	conn, err := net.DialTimeout("tcp", cloudAddr, DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("service: dialing cloud: %w", err)
	}
	defer conn.Close()
	resp, err := protocol.NewConn(conn).Roundtrip(&protocol.Message{PromoteReq: &protocol.PromoteRequest{Term: term}})
	if err != nil {
		return nil, fmt.Errorf("service: promote: %w", err)
	}
	if resp.PromoteResp == nil {
		return nil, fmt.Errorf("service: promote response missing")
	}
	return resp.PromoteResp, nil
}

// Reconfigure repoints the daemon at cloudAddr to follow primaryAddr (or
// detaches it into standalone mode when primaryAddr is empty), authenticated
// by the promotion term of the failover that motivated it.
func Reconfigure(cloudAddr, primaryAddr string, term uint64) error {
	conn, err := net.DialTimeout("tcp", cloudAddr, DialTimeout)
	if err != nil {
		return fmt.Errorf("service: dialing cloud: %w", err)
	}
	defer conn.Close()
	resp, err := protocol.NewConn(conn).Roundtrip(&protocol.Message{ReconfigureReq: &protocol.ReconfigureRequest{Primary: primaryAddr, Term: term}})
	if err != nil {
		return fmt.Errorf("service: reconfigure: %w", err)
	}
	if resp.ReconfigureResp == nil {
		return fmt.Errorf("service: reconfigure response missing")
	}
	return nil
}
