package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/durable"
	"mkse/internal/harness"
	"mkse/internal/service"
	"mkse/internal/telemetry"
	"mkse/internal/trace"
)

// traceBufferCap bounds each trace buffer. It is sized far above the number
// of requests a traced phase completes, so no trace is overwritten before
// the phase is analysed (analysis reports the count it found).
const traceBufferCap = 1 << 16

// node is one cloud daemon served on a loopback listener.
type node struct {
	svc  *service.CloudService
	l    net.Listener
	addr string
}

// setupTimes splits one set-up into its stages.
type setupTimes struct {
	corpus, build, load, enroll time.Duration
}

func (t setupTimes) total() time.Duration { return t.corpus + t.build + t.load + t.enroll }

// system is one running deployment under test: the owner daemon, the cloud
// daemons holding the corpus, and an enrolled user client, all in this
// process on loopback. The benchmark keeps the generated inputs alongside
// it to check outputs.
type system struct {
	sp     spec
	seed   int64
	traced bool

	owner   *core.Owner
	dict    []string
	ids     []string          // sp.docs loaded documents, then the writer's reserve
	known   map[string]bool   // every generated document ID
	keys    []docKeys         // keywords of each loaded document, the query source
	content map[string][]byte // plaintexts, kept where retrievals are checked
	indices []*core.SearchIndex
	encs    []*core.EncryptedDocument

	nodes     []*node
	cfg       cluster.Config // partition topology (search-p2 only)
	ownerL    net.Listener
	ownerAddr string
	wire      byteCounter // bytes on every cloud and owner listener
	client    *service.Client

	eng     *durable.Engine
	dataDir string
	reg     *telemetry.Registry // durable-engine instruments, traced runs only

	clientBuf, cloudBuf, ownerBuf, benchBuf *trace.Buffer
	bench                                   *trace.Tracer // the benchmark's own spans (traced runs)

	times        setupTimes
	heapBefore   uint64 // live heap just before the daemons started
	heapStores   uint64 // what starting the daemons and loading the corpus added: the daemons' memory
	buildQueryUS []float64
	pool         [][]byte     // mixed-durable: marshaled query vectors
	poolWords    [][]string   // the keywords each pool entry was built from
	model        *writerModel // mixed-durable: what the cloud should store
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// startSystem builds one deployment from the seed: corpus, owner and
// indices, daemons with the corpus loaded, and an enrolled, warmed-up
// client. Every stage is timed; together they are one set-up.
func startSystem(sp spec, seed int64, traced bool, dataRoot string) (*system, error) {
	s := &system{sp: sp, seed: seed, traced: traced}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	t0 := time.Now()
	docs, err := genCorpus(sp.docs+sp.reserve, seed)
	if err != nil {
		return nil, err
	}
	s.dict = corpus.Dictionary(dictionarySize)
	s.keys = keysOf(docs, sp.docs, s.dict)
	s.known = make(map[string]bool, len(docs))
	for _, d := range docs {
		s.ids = append(s.ids, d.ID)
		s.known[d.ID] = true
	}
	if sp.retrieveEvery > 0 {
		s.content = make(map[string][]byte, sp.docs)
		for _, d := range docs[:sp.docs] {
			s.content[d.ID] = d.Content
		}
	}
	s.times.corpus = time.Since(t0)

	t0 = time.Now()
	if s.owner, err = core.NewOwnerDeterministic(params(), seed, seed+0x5eed); err != nil {
		return nil, err
	}
	if s.indices, err = s.owner.BuildIndexes(docs, 0); err != nil {
		return nil, err
	}
	if s.encs, err = encryptAll(s.owner, docs); err != nil {
		return nil, err
	}
	s.times.build = time.Since(t0)

	if traced {
		s.clientBuf = trace.NewBuffer(traceBufferCap)
		s.cloudBuf = trace.NewBuffer(traceBufferCap)
		s.ownerBuf = trace.NewBuffer(traceBufferCap)
		s.benchBuf = trace.NewBuffer(traceBufferCap)
		s.bench = trace.New("bench", 1, s.benchBuf)
	}
	s.heapBefore = liveHeap()
	t0 = time.Now()
	if err := s.startDaemons(dataRoot); err != nil {
		return nil, err
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.times.load = time.Since(t0)
	if after := liveHeap(); after > s.heapBefore {
		s.heapStores = after - s.heapBefore
	}
	if sp.partitions == 0 && !sp.durable {
		// Only the cluster's reference check and the writer reuse these.
		s.indices, s.encs = nil, nil
	}

	t0 = time.Now()
	if err := s.enrollAndWarm(); err != nil {
		return nil, err
	}
	s.times.enroll = time.Since(t0)
	ok = true
	return s, nil
}

// encryptAll wraps every document for the cloud on all cores, in input
// order.
func encryptAll(o *core.Owner, docs []*corpus.Document) ([]*core.EncryptedDocument, error) {
	out := make([]*core.EncryptedDocument, len(docs))
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(docs); i += workers {
				if out[i], errs[w] = o.EncryptDocument(docs[i]); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// startDaemons starts the owner daemon and the cloud daemons, each on a
// loopback listener whose traffic is counted.
func (s *system) startDaemons(dataRoot string) error {
	p := s.owner.Params()
	count := func(serve func(net.Listener) error) func(net.Listener) error {
		return func(l net.Listener) error { return serve(countingListener{Listener: l, c: &s.wire}) }
	}
	ownerSvc := &service.OwnerService{Owner: s.owner}
	if s.traced {
		ownerSvc.Tracer = trace.New("owner", 1, s.ownerBuf)
	}
	var err error
	if s.ownerL, s.ownerAddr, err = harness.ServeOn(count(ownerSvc.Serve)); err != nil {
		return err
	}

	n := max(1, s.sp.partitions)
	for i := 0; i < n; i++ {
		svc := &service.CloudService{}
		if s.sp.partitions > 0 {
			svc.Partition, svc.Partitions = i, s.sp.partitions
		}
		if s.sp.cacheMB > 0 {
			svc.Cache = service.NewResultCache(int64(s.sp.cacheMB) << 20)
		}
		var tr *trace.Tracer
		if s.traced {
			// Sample rate 1: requests that carry no trace context (fetches,
			// stats) are recorded as their own traces.
			tr = trace.New(fmt.Sprintf("cloud-p%d", i), 1, s.cloudBuf)
		}
		if s.sp.durable {
			s.dataDir = filepath.Join(dataRoot, fmt.Sprintf("engine-%d-%d", os.Getpid(), time.Now().UnixNano()))
			if err := s.bulkLoad(p); err != nil {
				return err
			}
			// Reopen with the serving options: the restart recovers the
			// bulk load's checkpoint, and automatic checkpoints start from
			// there instead of firing all through the preload.
			eng, err := durable.Open(s.dataDir, p, durable.Options{
				Fsync:           durable.FsyncInterval,
				CheckpointEvery: s.sp.checkpointEvery,
			})
			if err != nil {
				return err
			}
			s.eng = eng
			svc.Server, svc.Store, svc.WAL, svc.Eng = eng.Server(), eng, eng, eng
			if s.traced {
				eng.SetTracer(tr)
				s.reg = telemetry.New()
				eng.EnableMetrics(s.reg)
			}
		} else {
			srv, err := core.NewServer(p)
			if err != nil {
				return err
			}
			svc.Server = srv
		}
		if tr != nil {
			svc.EnableTracing(tr)
		}
		l, addr, err := harness.ServeOn(count(svc.Serve))
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, &node{svc: svc, l: l, addr: addr})
		if s.sp.partitions > 0 {
			s.cfg.Partitions = append(s.cfg.Partitions, cluster.Partition{Primary: addr})
		}
	}
	return nil
}

// bulkLoad logs the first sp.docs documents into a fresh durable engine and
// closes it, which leaves one checkpoint holding the whole preload.
func (s *system) bulkLoad(p core.Params) error {
	eng, err := durable.Open(s.dataDir, p, durable.Options{Fsync: durable.FsyncInterval})
	if err != nil {
		return err
	}
	for i := 0; i < s.sp.docs; i++ {
		if err := eng.Upload(s.indices[i], s.encs[i]); err != nil {
			eng.Crash()
			return fmt.Errorf("loading %s: %w", s.ids[i], err)
		}
	}
	return eng.Close()
}

// load puts the first sp.docs documents straight into the memory-only
// daemons' stores: the owning partition's core.Server, or the single node's.
// Each store gets its own copy of the document, as a wire upload would
// give it, so the daemons share no memory with the benchmark's inputs and
// heapStores is all theirs. A durable node was loaded before it started
// (bulkLoad) and recovered its own copies from the checkpoint.
func (s *system) load() error {
	if s.eng != nil {
		return nil
	}
	m := s.cfg.Map()
	for i := 0; i < s.sp.docs; i++ {
		n := s.nodes[0]
		if s.sp.partitions > 0 {
			n = s.nodes[m.Owner(s.ids[i])]
		}
		e := s.encs[i]
		doc := &core.EncryptedDocument{ID: strings.Clone(e.ID), Ciphertext: bytes.Clone(e.Ciphertext), EncKey: bytes.Clone(e.EncKey)}
		si := *s.indices[i]
		si.DocID = doc.ID
		if err := n.svc.Server.Upload(&si, doc); err != nil {
			return fmt.Errorf("loading %s: %w", s.ids[i], err)
		}
	}
	return nil
}

// enrollAndWarm dials and enrolls the user, fetches trapdoor material for
// the whole dictionary, and runs the warm-up traffic that lazy set-up needs
// (scan workers, cache fill) so none of it is timed.
func (s *system) enrollAndWarm() error {
	var err error
	if s.sp.partitions > 0 {
		s.client, err = service.DialCluster("bench-user", s.ownerAddr, s.cfg)
	} else {
		s.client, err = service.Dial("bench-user", s.ownerAddr, s.nodes[0].addr)
	}
	if err != nil {
		return err
	}
	if s.traced {
		s.client.Tracer = trace.New("client", 1, s.clientBuf)
	}
	if err := s.client.EnsureTrapdoors(s.dict); err != nil {
		return err
	}
	gen := newQueryGen(s.dict, s.keys, s.seed^0x77a2)
	for i := 0; i < 8; i++ {
		if _, err := s.client.Search(gen.next(), s.sp.topK); err != nil {
			return fmt.Errorf("warm-up search: %w", err)
		}
	}
	u := s.client.User()
	for i := 0; i < 64; i++ {
		words := gen.next()
		t0 := time.Now()
		if _, err := u.BuildQuery(words); err != nil {
			return err
		}
		s.buildQueryUS = append(s.buildQueryUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if s.sp.batch > 0 {
		qs := make([][]string, s.sp.batch)
		for i := range qs {
			qs[i] = gen.next()
		}
		if _, err := s.client.SearchBatch(qs, s.sp.topK); err != nil {
			return fmt.Errorf("warm-up batch: %w", err)
		}
	}
	if s.sp.retrieveEvery > 0 {
		if _, err := s.client.Retrieve(s.ids[0]); err != nil {
			return fmt.Errorf("warm-up retrieve: %w", err)
		}
	}
	if s.sp.pool > 0 {
		s.model = newWriterModel(s.sp.docs, len(s.ids))
		return s.buildPool()
	}
	return nil
}

// buildPool pre-builds mixed-durable's query pool with a seeded query RNG
// and runs every entry once so the cache holds the pool before timing.
func (s *system) buildPool() error {
	u := s.client.User()
	u.SeedQueryRNG(s.seed ^ 0x9001)
	gen := newQueryGen(s.dict, s.keys, s.seed^0x9002)
	for i := 0; i < s.sp.pool; i++ {
		words := gen.next()
		q, err := u.BuildQuery(words)
		if err != nil {
			return err
		}
		b, err := q.MarshalBinary()
		if err != nil {
			return err
		}
		s.pool = append(s.pool, b)
		s.poolWords = append(s.poolWords, words)
	}
	c, err := dialRaw(s.nodes[0].addr)
	if err != nil {
		return err
	}
	defer c.close()
	for _, q := range s.pool {
		if _, err := c.search(context.Background(), q, s.sp.topK); err != nil {
			return fmt.Errorf("warming the cache: %w", err)
		}
	}
	return nil
}

// close tears the deployment down: client, listeners, engine and its data.
func (s *system) close() {
	if s.client != nil {
		s.client.Close()
	}
	for _, n := range s.nodes {
		n.l.Close()
	}
	if s.ownerL != nil {
		s.ownerL.Close()
	}
	if s.eng != nil {
		s.eng.Crash()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}
