// Command perfbench is the repository's benchmark. It starts the MKS
// daemons in process on loopback — cloud daemons holding a seeded corpus
// and an owner daemon — drives them from one load-generating process
// through the public client and wire protocol, checks every output, and
// prints the workload's metrics, ending with one JSON line:
//
//	bash perfbench/run.sh --workload search-p2 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 splits the
// time between an untraced and a fully traced phase and reports the
// per-layer metrics, with a layer table of the traced requests' critical
// paths. The exit code is non-zero on any wrong output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mkse/internal/buildinfo"
)

// spec is one workload's fixed parameters.
type spec struct {
	name, why string

	docs       int // corpus size loaded before timing
	partitions int // > 0: a P-partition cluster behind service.DialCluster; 0: one node behind service.Dial
	topK       int // τ
	cacheMB    int // query-result cache budget (0 = no cache)

	retrieveEvery int // search-p2: every n-th iteration retrieves the last top hit
	batch         int // batch-scan: queries per SearchBatch

	durable         bool    // mixed-durable: the node is a durable.Engine (fsync interval)
	checkpointEvery int     // mutations between background checkpoints
	pool            int     // searcher's pre-built query pool
	zipfS           float64 // skew of the searcher's picks from the pool
	writerRate      float64 // open-loop mutations per second
	reserve         int     // generated documents the writer can add beyond docs

	setupReps int // set-ups per run; setup_s is their median
}

var specs = []spec{
	{
		name:          "search-p2",
		why:           "per-request fixed costs (codec, framing, scatter/merge) and the owner's RSA dominate a 2-partition cluster search; the scan is a small share",
		docs:          2000,
		partitions:    2,
		topK:          10,
		retrieveEvery: 10,
		setupReps:     5,
	},
	{
		name:      "batch-scan",
		why:       "32 fresh queries per exchange on one node make the level-0 screen and level walk dominate, and every cache lookup misses",
		docs:      20000,
		topK:      10,
		cacheMB:   16,
		batch:     32,
		setupReps: 3,
	},
	{
		name:            "mixed-durable",
		why:             "the only workload where WAL appends, checkpoints, arena mutation, epoch invalidation and cache hits do the work",
		docs:            10000,
		topK:            10,
		cacheMB:         64,
		durable:         true,
		checkpointEvery: 500,
		pool:            256,
		zipfS:           1.1,
		writerRate:      100,
		reserve:         512,
		setupReps:       3,
	},
}

func lookup(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// watchdogSlack is how long past its timed load a run may take (set-ups,
// checks) before the watchdog ends it as hung.
const watchdogSlack = 140 * time.Second

func main() {
	workload := flag.String("workload", "", "workload to run: search-p2, batch-scan or mixed-durable")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same corpus and queries")
	seconds := flag.Int("seconds", 10, "seconds of timed load")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced phase")
	flag.Parse()

	sp, ok := lookup(*workload)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload search-p2|batch-scan|mixed-durable, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	time.AfterFunc(d+watchdogSlack, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", d+watchdogSlack)
		os.Exit(3)
	})
	dataRoot := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(os.Stdout, sp, *seed, d, *traced == 1, dataRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// writeMeta prints the run's metadata as one JSON line.
func writeMeta(w io.Writer, sp spec, seed int64, d time.Duration, traced bool) {
	_, commit := buildinfo.Fields()
	meta := map[string]any{
		"git_sha": commit, "go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"workload": sp.name, "why": sp.why, "seed": seed, "seconds": d.Seconds(), "trace": traced,
		"docs": sp.docs, "partitions": max(1, sp.partitions), "tau": sp.topK,
		"query_keywords": queryKeywords, "keywords_per_doc": keywordsPerDoc, "dictionary": dictionarySize,
		"eta": params().Eta(), "bins": params().Bins, "cache_mb": sp.cacheMB, "setup_reps": sp.setupReps,
		"op_timeout_s":      opTimeout.Seconds(),
		"latency_statistic": fmt.Sprintf("read_p50_ms and side_p50_ms: lower quartile of the medians of %v windows", window),
	}
	switch {
	case sp.retrieveEvery > 0:
		meta["read_op"] = "Client.Search (closed loop, 1 user)"
		meta["side_op"] = fmt.Sprintf("Client.Retrieve of the previous top hit, every %dth iteration", sp.retrieveEvery)
	case sp.batch > 0:
		meta["batch"] = sp.batch
		meta["read_op"] = fmt.Sprintf("Client.SearchBatch of %d fresh queries (closed loop, 1 user)", sp.batch)
		meta["side_op"] = "Client.Search, alternating with the batches"
	default:
		meta["pool"], meta["zipf_s"] = sp.pool, sp.zipfS
		meta["writer_rate_per_s"], meta["writer_mix"] = sp.writerRate, "upload new : delete : re-upload = 1:1:1"
		meta["fsync"], meta["checkpoint_every"] = "interval", sp.checkpointEvery
		meta["read_op"] = "raw SearchRequest from the Zipf pool over protocol.Conn (closed loop)"
		meta["side_op"] = "owner-side mutation over protocol.Conn (open loop, timed from its due time)"
	}
	b, _ := json.Marshal(meta)
	fmt.Fprintf(w, "meta %s\n", b)
}
