package service

import (
	"context"
	"net"
	"strings"
	"testing"

	"mkse/internal/bitindex"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/durable"
	"mkse/internal/protocol"
	"mkse/internal/rank"
	"mkse/internal/telemetry"
	"mkse/internal/trace"
)

// metricsDeployment is a private owner+cloud pair with metrics enabled —
// the shared deployment is not used because EnableMetrics mutates the
// service and the assertions below count absolute requests.
func metricsDeployment(t *testing.T) (*telemetry.Registry, *CloudService, string, string, []*corpus.Document) {
	t.Helper()
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 64
	owner, err := core.NewOwner(p, 99)
	if err != nil {
		t.Fatal(err)
	}
	server, err := core.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Generate(corpus.Config{
		NumDocs: 10, KeywordsPerDoc: 8, Dictionary: corpus.Dictionary(100),
		MaxTermFreq: 10, ContentWords: 10, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var items []UploadItem
	for _, d := range docs {
		si, enc, err := owner.Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, UploadItem{Index: si, Doc: enc})
	}

	reg := telemetry.New()
	svc := &CloudService{Server: server, Cache: NewResultCache(1 << 20)}
	svc.EnableMetrics(reg)

	ownerL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cloudL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ownerL.Close(); cloudL.Close() })
	go func() { _ = (&OwnerService{Owner: owner}).Serve(ownerL) }()
	go func() { _ = svc.Serve(cloudL) }()

	if err := UploadAll(cloudL.Addr().String(), items); err != nil {
		t.Fatal(err)
	}
	return reg, svc, ownerL.Addr().String(), cloudL.Addr().String(), docs
}

// One live deployment: requests flow, then the scrape must show them — the
// per-verb latency counts, the error counter on a failed fetch, the scan
// histogram fed by core, the store gauges, the role series, and an
// in-flight gauge back at zero once the requests are done.
func TestEnableMetricsEndToEnd(t *testing.T) {
	reg, _, ownerAddr, cloudAddr, docs := metricsDeployment(t)

	client, err := Dial("metrics-alice", ownerAddr, cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Search(docs[0].Keywords()[:2], 5); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Retrieve("no-such-document"); err == nil {
		t.Fatal("retrieving a missing document should fail")
	}

	got := reg.Render()
	for _, want := range []string{
		`mkse_request_duration_seconds_count{verb="search"} 1`,
		`mkse_request_duration_seconds_count{verb="upload"} 10`,
		`mkse_request_errors_total{verb="fetch"} 1`,
		`mkse_request_errors_total{verb="search"} 0`,
		"mkse_requests_in_flight 0",
		"mkse_documents 10",
		"mkse_epoch ",
		`mkse_role{role="standalone"} 1`,
		"mkse_qcache_misses_total 1",
		"mkse_scan_duration_seconds_count 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// No WAL: the durable series must be absent, mirroring StatsJSON.
	for _, absent := range []string{SeriesWALPosition, SeriesTerm} {
		if strings.Contains(got, absent) {
			t.Errorf("memory-only daemon scrape contains %q", absent)
		}
	}
}

func TestHealthRoles(t *testing.T) {
	p := core.DefaultParams()
	server, err := core.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}

	s := &CloudService{Server: server}
	if h := s.Health(0); !h.Ready || h.Role != "standalone" {
		t.Errorf("standalone health = %+v, want ready standalone", h)
	}

	// A fenced ex-primary is never ready.
	s.fence(7)
	if h := s.Health(0); h.Ready || h.Role != "fenced" || h.Detail == "" {
		t.Errorf("fenced health = %+v, want unready fenced with detail", h)
	}

	// A follower whose stream is down (primary unreachable) is not ready,
	// and the detail says why.
	eng, err := durable.Open(t.TempDir(), p, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	r := StartReplica(eng, "127.0.0.1:1", nil)
	defer r.Close()
	f := &CloudService{Server: eng.Server(), Store: eng, WAL: eng, Eng: eng, Replica: r}
	if h := f.Health(0); h.Ready || h.Role != "follower" || !strings.Contains(h.Detail, "replication stream down") {
		t.Errorf("disconnected follower health = %+v, want unready with stream-down detail", h)
	}
}

func TestStatsJSONKeys(t *testing.T) {
	st := &protocol.StatsResponse{NumDocuments: 4, NumShards: 2, Epoch: 9}
	got := StatsJSON(st)
	for _, key := range []string{SeriesDocuments, SeriesShards, SeriesEpoch} {
		if _, ok := got[key]; !ok {
			t.Errorf("missing %q", key)
		}
	}
	// Memory-only, no cache: the conditional series are omitted, as on a
	// scrape of the same daemon.
	for _, key := range []string{SeriesWALPosition, SeriesTerm, SeriesReplicaLag, SeriesQCacheHits} {
		if _, ok := got[key]; ok {
			t.Errorf("memory-only stats should omit %q", key)
		}
	}

	st.Durable = true
	st.WALPosition = 42
	st.Term = 3
	st.Replica = true
	st.ReplicaConnected = true
	st.PrimaryPosition = 44
	st.Cache.Enabled = true
	st.Cache.Hits = 5
	got = StatsJSON(st)
	if got[SeriesWALPosition] != uint64(42) || got[SeriesTerm] != uint64(3) {
		t.Errorf("durable series wrong: %v", got)
	}
	if got[SeriesReplicaLag] != uint64(2) || got[SeriesReplicaConnected] != 1 {
		t.Errorf("replica series wrong: %v", got)
	}
	if got[SeriesQCacheHits] != uint64(5) {
		t.Errorf("cache series wrong: %v", got)
	}
}

// The core server carries one scan hook, so metrics and tracing must share
// it: whichever is enabled second keeps the first one's observations.
func TestScanObserverFeedsMetricsAndTracing(t *testing.T) {
	p := core.DefaultParams().WithLevels(rank.Levels{1, 5, 10})
	p.Bins = 64
	for _, metricsFirst := range []bool{true, false} {
		server, err := core.NewServer(p)
		if err != nil {
			t.Fatal(err)
		}
		svc := &CloudService{Server: server}
		tracer := trace.New("cloud", 0, nil)
		if metricsFirst {
			svc.EnableMetrics(telemetry.New())
			svc.EnableTracing(tracer)
		} else {
			svc.EnableTracing(tracer)
			svc.EnableMetrics(telemetry.New())
		}
		ctx, root := tracer.StartRequest(context.Background(), "server:search", true)
		if _, err := server.SearchTopContext(ctx, bitindex.NewOnes(p.R), 5); err != nil {
			t.Fatal(err)
		}
		root.End()
		if got := svc.Metrics.scan.Count(); got != 1 {
			t.Errorf("metrics first=%v: scan histogram observed %d scans, want 1", metricsFirst, got)
		}
		scans := 0
		for _, sp := range root.Spans() {
			if sp.Name == "scan" {
				scans++
			}
		}
		if scans != 1 {
			t.Errorf("metrics first=%v: trace holds %d scan spans, want 1", metricsFirst, scans)
		}
	}
}
