package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/concurrent"
)

// sizes fixes one workload's inputs and load.
type sizes struct {
	Keys    int // face64 keys in the index
	Queries int // length of the seeded query stream (a multiple of Batch)
	Batch   int // keys per read call
	// OpenRate is the rate of http-find-200k's open-loop phase, in
	// requests per second: about half the closed loop's capacity on the
	// 2-CPU reference box. Only traced runs have that phase.
	OpenRate float64
	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
	// FreshProbes is how many keys lookup-10m's freshness phase inserts.
	FreshProbes int
	// WritesPerVersion and Cadence drive the writer of http-find-200k's
	// traced replication phase: that many seeded Insert/Delete
	// operations, then one Publish, started every Cadence.
	WritesPerVersion int
	Cadence          time.Duration
}

// workloads are the named workloads BENCHMARK.json lists.
var workloads = map[string]sizes{
	"lookup-10m": {
		Keys: 10_000_000, Queries: 1 << 21, Batch: 64,
		SetupReps: 10, FreshProbes: 5000,
	},
	"http-find-200k": {
		Keys: 200_000, Queries: 1 << 20, Batch: 1,
		OpenRate: 8_000, SetupReps: 10,
		WritesPerVersion: 2000, Cadence: 250 * time.Millisecond,
	},
}

// replicaPool is how many of the query stream's queries the replication
// phase reads; each version's reference ranks cover them all.
const replicaPool = 1 << 16

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd and perLayer are the metric names a run reports, untraced and
// traced respectively; BENCHMARK.json lists the same names.
var endToEnd = []string{
	"lookups_per_s", "batch_p50_us", "http_qps", "find_p50_us",
	"cpu_us_per_req", "setup_s", "rss_mb",
}

// The p99 latencies and fresh_p50_ms are per-layer, not end-to-end:
// their run-to-run spread on the reference VM is the host's, beyond any
// bound a regression gate could use. The tails move with the host's
// neighbours; fresh_p50_ms through a replica is bound by the disk's
// fsync latency, which moved its median between 3 and 12 ms from run to
// run.
var perLayer = []string{
	"batch_p99_us", "find_p99_us", "fresh_p50_ms",
	"core.find_batch_ns_per_key", "core.window_mean", "core.log2_error", "core.size_bytes", "core.build_s",
	"concurrent.find_batch_tagged_ns_per_key", "concurrent.self_ns_per_key", "concurrent.find_one_ns",
	"concurrent.write_ns", "concurrent.compact_ms", "concurrent.pending_at_publish",
	"replica.publish_ms.delta", "replica.publish_ms.full", "replica.sync_ms.delta", "replica.sync_ms.full",
	"replica.artifact_bytes.delta", "replica.artifact_bytes.full", "replica.sync_failures",
	"replica.read_batch_p50_us", "replica.read_batch_p99_us",
	"mapped.minor_faults",
	"serve.coalescer_find_ns", "serve.coalescer_self_ns", "serve.coalescer_mean_wave",
	"serve.handler_find_ns", "serve.handler_self_ns", "serve.handler_allocs_per_req",
	"serve.loopback_rtt_us", "serve.net_self_us", "serve.rejected",
	"runtime.gc_cycles", "runtime.gc_pause_ms",
	"loadgen.open_p50_us", "loadgen.open_p99_us", "loadgen.late_p99_us",
	"trace.spans", "trace.lookups_per_s_overhead_pct", "trace.http_qps_overhead_pct",
}

// runWorkload runs cfg's workload and keeps exactly the metrics its mode
// reports, failing if one is missing.
func runWorkload(cfg runConfig) (*result, error) {
	var (
		r   *result
		err error
	)
	switch cfg.Workload {
	case "lookup-10m":
		r, err = runLookup(cfg)
	case "http-find-200k":
		r, err = runHTTP(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	r.set("serve.rejected", float64(r.Rejected), "count")
	want := endToEnd
	if cfg.Traced {
		want = perLayer
	}
	kept := make(map[string]metric, len(want))
	for _, name := range want {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.Workload, name)
		}
		kept[name] = m
	}
	r.Metrics = kept
	return r, nil
}

// manual is the compaction policy every benchmark index uses: the
// benchmark decides when to compact, so compactions land at the same
// point in every run.
var manual = concurrent.Config{Policy: concurrent.CompactionPolicy{Kind: concurrent.Manual}}

// phase splits the measured time between a run's phases.
func phase(cfg runConfig, share float64) time.Duration {
	return time.Duration(float64(cfg.Measure) * share)
}
