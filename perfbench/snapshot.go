package main

import (
	"runtime/metrics"
	"time"

	"mkse/internal/durable"
	"mkse/internal/protocol"
	"mkse/internal/service"
)

// snapshot is every counter a phase is measured as the difference of.
type snapshot struct {
	at          time.Time
	wire        int64
	gcCPU       float64 // GC CPU seconds, process-wide
	totalCPU    float64
	idleCPU     float64
	allocObjs   uint64
	allocBytes  uint64
	comparisons int64 // binary comparisons over every cloud node's server
	cache       protocol.CacheStatsWire
	eng         durable.Stats
	fsyncs      uint64
	fsyncTime   time.Duration
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

// takeSnapshot reads the counters. The cache counters come from each
// daemon's Stats verb, whose own traffic is kept outside the phase's byte
// window: read before the wire counter when opening a phase, after it when
// closing one.
func takeSnapshot(s *system, opening bool) (snapshot, error) {
	var sn snapshot
	readCache := func() error {
		for _, n := range s.nodes {
			st, err := service.FetchStats(n.addr)
			if err != nil {
				return err
			}
			c := st.Cache
			sn.cache.Hits += c.Hits
			sn.cache.Misses += c.Misses
			sn.cache.Evictions += c.Evictions
			sn.cache.Invalidations += c.Invalidations
		}
		return nil
	}
	if opening {
		if err := readCache(); err != nil {
			return sn, err
		}
	}
	sn.wire = s.wire.load()
	sn.at = time.Now()
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	sn.gcCPU, sn.totalCPU, sn.idleCPU = ms[0].Value.Float64(), ms[1].Value.Float64(), ms[2].Value.Float64()
	sn.allocObjs, sn.allocBytes = ms[3].Value.Uint64(), ms[4].Value.Uint64()
	for _, n := range s.nodes {
		sn.comparisons += n.svc.Server.Costs.BinaryComparisons.Load()
	}
	if s.eng != nil {
		sn.eng = s.eng.Stats()
	}
	if s.reg != nil {
		h := s.reg.Histogram("mkse_wal_fsync_seconds", "", nil)
		sn.fsyncs, sn.fsyncTime = h.Count(), h.Sum()
	}
	if !opening {
		if err := readCache(); err != nil {
			return sn, err
		}
	}
	return sn, nil
}
