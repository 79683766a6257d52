package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"mkse/internal/protocol"
	"mkse/internal/trace"
)

// DefaultMaxReplicaLag is how many log records a read replica may trail the
// primary before the client routes its reads back to the primary.
const DefaultMaxReplicaLag = 1024

// DefaultPartitionTimeout bounds every attempt a client makes against one
// partition: an exchange not answered within this budget fails, and the
// request moves on — to a promoted primary, to a caught-up replica, and then
// (for a scatter-gather read) without the partition. Override per client via
// Client.PartitionTimeout.
const DefaultPartitionTimeout = 2 * time.Second

// replicaDialTimeout bounds connection attempts to read replicas. It is
// deliberately short — the dial happens on the read path, and the primary
// is always there to fall back to.
const replicaDialTimeout = 500 * time.Millisecond

// replicaMaxBench caps the exponential back-off a repeatedly failing
// replica is benched for between redial attempts.
const replicaMaxBench = 30 * time.Second

// errNoReplica reports that no replica of a partition could serve a read.
var errNoReplica = errors.New("service: no caught-up replica answered")

// link is one lazily dialed connection to a cloud daemon.
type link struct {
	addr string
	conn *protocol.Conn // nil until dialed, and again after a transport failure
	raw  net.Conn
}

func (l *link) dial(timeout time.Duration) error {
	raw, err := net.DialTimeout("tcp", l.addr, timeout)
	if err != nil {
		return err
	}
	l.raw, l.conn = raw, protocol.NewConn(raw)
	return nil
}

func (l *link) close() {
	if l.raw != nil {
		l.raw.Close()
	}
	l.raw, l.conn = nil, nil
}

// partition routes one partition's traffic. A single node is a one-partition
// cluster, so every request a Client sends goes through one of these: the
// primary link, which follows a promotion to whichever replica took over,
// and the replica set reads rotate across within the lag budget. Access is
// serialized by the Client mutex, except during a scatter, where each
// fan-out goroutine owns exactly one partition while the fan-out holds the
// mutex.
type partition struct {
	index, count int // identity index/count, re-verified on a promoted primary
	primary      link

	replicas []*readReplica
	next     int               // rotation cursor over replicas
	reads    map[string]uint64 // reads answered, by replica address or "primary"
}

// readReplica is one follower a partition may send reads to.
type readReplica struct {
	link
	downUntil time.Time // failed recently; no redial before this
	checkedAt time.Time // last successful status probe
	lagging   bool      // last probe showed lag beyond the budget
	fails     int       // consecutive failures, drives the bench back-off
}

// lostPrimary reports whether an error means the primary is gone from its
// role: a transport failure, or a read-only rejection from a daemon fenced
// out of it. Any other remote rejection is the request's own fault — every
// server would reject it.
func lostPrimary(err error) bool {
	var remote *protocol.RemoteError
	return !errors.As(err, &remote) || remote.Code == protocol.CodeReadOnly
}

// isTransport reports whether an error came from the connection rather than
// from a server that understood the request and rejected it.
func isTransport(err error) bool {
	var remote *protocol.RemoteError
	return !errors.As(err, &remote)
}

// read sends a read request (Search, SearchBatch, Fetch) to p: the next
// caught-up replica, else the primary — following a promotion if it is gone
// — and, when no primary answers, any replica still within the lag budget.
// A *protocol.RemoteError is returned as-is without failover: the server
// understood the request and rejected it, and every server would.
func (c *Client) read(ctx context.Context, p *partition, m *protocol.Message) (*protocol.Message, error) {
	if resp, err := c.readReplicas(ctx, p, m); !errors.Is(err, errNoReplica) {
		return resp, err
	}
	resp, err := c.write(ctx, p, m)
	if err == nil || !lostPrimary(err) {
		p.countRead("primary")
		return resp, err
	}
	if resp, rerr := c.readReplicas(ctx, p, m); !errors.Is(rerr, errNoReplica) {
		return resp, rerr
	}
	return nil, fmt.Errorf("service: partition %d unreachable: %w", p.index, err)
}

// write sends a request that must reach p's primary: Delete, and Stats,
// which describes the server the client mutates. It is also the primary leg
// of every read. A lost primary triggers one probe of the replica set for
// its promoted successor and one retry against it.
func (c *Client) write(ctx context.Context, p *partition, m *protocol.Message) (*protocol.Message, error) {
	resp, err := c.primaryAttempt(ctx, p, m)
	if err == nil || !lostPrimary(err) {
		return resp, err
	}
	if c.followPrimary(p) != nil {
		return nil, err // the original failure describes the outage best
	}
	return c.primaryAttempt(ctx, p, m)
}

// primaryAttempt sends one exchange to p's primary, redialing it first if
// an earlier failure dropped the connection.
func (c *Client) primaryAttempt(ctx context.Context, p *partition, m *protocol.Message) (*protocol.Message, error) {
	if p.primary.conn == nil {
		_, sp := trace.Start(ctx, "redial")
		sp.SetAttr("addr", p.primary.addr)
		err := p.primary.dial(c.partitionTimeout())
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return c.attempt(ctx, &p.primary, "primary", m)
}

// readReplicas tries p's caught-up replicas in rotation until one answers,
// benching each that fails in transit. It returns errNoReplica when none
// did.
func (c *Client) readReplicas(ctx context.Context, p *partition, m *protocol.Message) (*protocol.Message, error) {
	for range p.replicas {
		r := c.pickReplica(p)
		if r == nil {
			break
		}
		resp, err := c.attempt(ctx, &r.link, "replica", m)
		if err == nil || !isTransport(err) {
			p.countRead(r.addr)
			return resp, err
		}
		c.bench(r)
	}
	return nil, errNoReplica
}

// attempt runs one exchange on a link under the partition timeout, as an
// "attempt" span. Every exchange sets its own deadline, so none is ever
// cleared. A deadline that fires mid-frame leaves the stream unframed, so a
// transport failure closes the link.
func (c *Client) attempt(ctx context.Context, l *link, role string, m *protocol.Message) (*protocol.Message, error) {
	_, sp := trace.Start(ctx, "attempt")
	sp.SetAttr("addr", l.addr)
	sp.SetAttr("role", role)
	l.raw.SetDeadline(time.Now().Add(c.partitionTimeout()))
	resp, err := l.conn.Roundtrip(m)
	if err != nil {
		sp.SetAttr("error", err.Error())
		if isTransport(err) {
			l.close()
		}
	}
	sp.End()
	return resp, err
}

// followPrimary re-discovers p's primary after losing it: it asks every
// replica for its role and repoints the primary link at the durable daemon
// that no longer calls itself a replica — the promoted survivor, highest
// promotion term first — once that daemon confirms it holds partition p.
func (c *Client) followPrimary(p *partition) error {
	var best *readReplica
	var bestTerm uint64
	for _, r := range p.replicas {
		if r.addr == p.primary.addr {
			continue
		}
		st, err := c.status(r)
		if err != nil || !st.Durable || st.Replica {
			continue
		}
		if best == nil || st.Term > bestTerm {
			best, bestTerm = r, st.Term
		}
	}
	if best == nil {
		return errors.New("service: no promoted primary found among the replica set")
	}
	next := link{addr: best.addr}
	if err := next.dial(c.partitionTimeout()); err != nil {
		return err
	}
	next.raw.SetDeadline(time.Now().Add(c.partitionTimeout()))
	if err := verifyPartitionIdentity(next.conn, p.index, p.count); err != nil {
		next.close()
		return err
	}
	p.primary.close()
	p.primary = next
	return nil
}

// pickReplica rotates over p's replica set and returns the first one fit to
// serve a read, or nil when none is.
func (c *Client) pickReplica(p *partition) *readReplica {
	n := len(p.replicas)
	for i := 0; i < n; i++ {
		r := p.replicas[(p.next+i)%n]
		if c.caughtUp(r) {
			p.next = (p.next + i + 1) % n
			return r
		}
	}
	return nil
}

// caughtUp reports whether a replica is connected and within the lag
// budget, re-probing its status on a fresh connection and every
// ReplicaProbeEvery.
func (c *Client) caughtUp(r *readReplica) bool {
	if time.Now().Before(r.downUntil) {
		return false
	}
	if r.conn == nil || time.Since(r.checkedAt) >= c.probeEvery() {
		if _, err := c.status(r); err != nil {
			return false
		}
	}
	return !r.lagging
}

// status asks a replica where it stands in the replicated log, dialing it
// if needed, and records whether it is within the lag budget. A replica
// that cannot answer is benched.
func (c *Client) status(r *readReplica) (*protocol.ReplicaStatusResponse, error) {
	if r.conn == nil {
		if err := r.dial(replicaDialTimeout); err != nil {
			c.bench(r)
			return nil, err
		}
	}
	resp, err := c.attempt(context.Background(), &r.link, "replica",
		&protocol.Message{ReplicaStatusReq: &protocol.ReplicaStatusRequest{}})
	if err == nil && resp.ReplicaStatusResp == nil {
		err = errors.New("service: replica status response missing")
	}
	if err != nil {
		c.bench(r)
		return nil, err
	}
	st := resp.ReplicaStatusResp
	r.checkedAt = time.Now()
	r.fails = 0
	r.lagging = st.PrimaryPosition-st.Position > c.maxLag() || (st.Replica && !st.Connected)
	return st, nil
}

// bench closes a failed replica's connection and keeps it out of rotation
// before the next redial, doubling the bench on every consecutive failure
// (up to replicaMaxBench) so a dead address is retried rarely.
func (c *Client) bench(r *readReplica) {
	r.close()
	r.lagging = false
	bench := c.probeEvery() << r.fails
	if bench > replicaMaxBench || bench <= 0 {
		bench = replicaMaxBench
	}
	if r.fails < 30 {
		r.fails++
	}
	r.downUntil = time.Now().Add(bench)
}

// countRead tallies one answered read for ReadDistribution.
func (p *partition) countRead(key string) {
	if p.reads == nil {
		p.reads = make(map[string]uint64)
	}
	p.reads[key]++
}

func (c *Client) maxLag() uint64 {
	if c.MaxReplicaLag > 0 {
		return c.MaxReplicaLag
	}
	return DefaultMaxReplicaLag
}

func (c *Client) probeEvery() time.Duration {
	if c.ReplicaProbeEvery > 0 {
		return c.ReplicaProbeEvery
	}
	return time.Second
}

func (c *Client) partitionTimeout() time.Duration {
	if c.PartitionTimeout > 0 {
		return c.PartitionTimeout
	}
	return DefaultPartitionTimeout
}
