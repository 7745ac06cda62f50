package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/concurrent"
	"repro/internal/kv"
	"repro/internal/mapped"
)

// checker reports whether got, the answers for the queries at offset off
// of the stream as served by snapshot tag, are right.
type checker func(tag uint64, off int, got []int) status

// staticCheck compares against reference ranks of an index that does not
// change while it is read.
func staticCheck(ranks []int32) checker {
	return func(_ uint64, off int, got []int) status { return compare(ranks, off, got) }
}

// compare judges got against the reference ranks from offset off.
func compare(want []int32, off int, got []int) status {
	for j, g := range got {
		if g != int(want[off+j]) {
			return statusWrong
		}
	}
	return statusOK
}

// batchReader is the in-process read path: call i sends the stream's
// i-th batch to FindBatchTagged, then checks the answers.
func batchReader(ix func() *concurrent.Index[uint64], qs []uint64, batch int, check checker) op {
	outs := make([][]int, clients)
	for w := range outs {
		outs[w] = make([]int, 0, batch)
	}
	return func(w, i int, buf *spanBuf) (time.Time, time.Time, status) {
		off := (i * batch) % len(qs)
		t0 := time.Now()
		out, tag := ix().FindBatchTagged(qs[off:off+batch], outs[w][:0])
		t1 := time.Now()
		buf.add(0, 0, "concurrent.FindBatchTagged", t0, t1, batch)
		outs[w] = out
		return t0, t1, check(tag, off, out)
	}
}

// setReadMetrics derives the read-path end-to-end metrics shared by every
// workload from its batch and find phases. The batch phase must have
// sampled the CPU time of the process holding the index.
func setReadMetrics(r *result, closed, find *loopStats, batch int) error {
	cpu, err := cpuPerCall(closed)
	if err != nil {
		return err
	}
	r.set("cpu_us_per_req", cpu, "us")
	if err := windowedMetrics(r, closed, "batch", "us", "lookups_per_s", float64(batch)); err != nil {
		return err
	}
	r.set("http_qps", r.Metrics["lookups_per_s"].Value/float64(batch), "1/s")
	return windowedMetrics(r, find, "find", "us", "", 0)
}

// setOpenLoop reports the open-loop phase of a traced run: latency at a
// fixed rate and how late the generator started its calls. These tails
// swing with the host from run to run (open_p99 measured 0.7 to 9 ms on
// the reference VM), so they are per-layer diagnostics, not end-to-end
// metrics with a bound.
func setOpenLoop(r *result, open *loopStats) error {
	if err := windowedMetrics(r, open, "loadgen.open", "us", "", 0); err != nil {
		return err
	}
	v, ok := open.late.percentile(0.99)
	if !ok {
		return fmt.Errorf("loadgen.late_p99_us: %d samples are too few", open.late.n)
	}
	r.set("loadgen.late_p99_us", float64(v)/1e3, "us")
	return nil
}

// setOverhead reports how much slower the traced closed loop ran than
// the untraced one, in percent of the untraced rate.
func setOverhead(r *result, untraced, traced *loopStats) {
	u := float64(untraced.ok()) / untraced.elapsed.Seconds()
	t := float64(traced.ok()) / traced.elapsed.Seconds()
	pct := 0.0
	if u > 0 {
		pct = (u - t) / u * 100
	}
	// Both rates count the same calls (lookups_per_s is calls times a
	// fixed batch), so one ratio serves both metrics.
	r.set("trace.lookups_per_s_overhead_pct", pct, "%")
	r.set("trace.http_qps_overhead_pct", pct, "%")
}

// setNotExercised reports the per-layer metrics of layers a workload
// does not drive as zero counts.
func setNotExercised(r *result, names ...string) {
	for _, n := range names {
		r.set(n, 0, unitOf(n))
	}
}

// unitOf is the unit BENCHMARK.json gives a per-layer metric.
func unitOf(name string) string {
	switch {
	case hasSuffix(name, "_ns", "_ns_per_key"):
		return "ns"
	case hasSuffix(name, "_us"):
		return "us"
	case hasSuffix(name, "_ms", "_ms.delta", "_ms.full"):
		return "ms"
	case hasSuffix(name, "_s"):
		return "s"
	case hasSuffix(name, "_pct"):
		return "%"
	case hasSuffix(name, "_bytes", "_bytes.delta", "_bytes.full"):
		return "bytes"
	}
	return "count"
}

func hasSuffix(s string, suffixes ...string) bool {
	for _, x := range suffixes {
		if strings.HasSuffix(s, x) {
			return true
		}
	}
	return false
}

// releaseMemory drops the previous set-up's garbage so the next one
// starts from the same heap.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// window is the length of the windows a phase is cut into, and slice
// the length of one turn of a phase that takes turns with others.
const (
	window = 250 * time.Millisecond
	slice  = time.Second
)

// readers is how many goroutines read an in-process index in lookup-10m
// and in http-find-200k's replication phase.
const readers = 1

// runLookup is lookup-10m: 10M keys, far larger than the caches, read in
// 64-key FindBatchTagged calls by one goroutine from a large seeded
// uniform query stream. The model, shift layer and local search do
// nearly all the work.
func runLookup(cfg runConfig) (*result, error) {
	sz := cfg.Size
	r := newResult()
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	keys, err := genKeys(sz.Keys, cfg.Seed)
	if err != nil {
		return nil, err
	}
	top := keys[len(keys)-1] + 1
	qs := genQueries(sz.Queries, cfg.Seed+1, top)
	ranks := refRanks(keys, qs)
	if cfg.corruptRank {
		ranks[len(ranks)/2]++
	}
	check := staticCheck(ranks)

	// Every phase reads the first index this process builds, with one
	// reader. The index a process builds first is the one a server
	// serves, and its speed repeats from process to process; an index
	// built after another was freed reads about half as fast, as its
	// pages are the freed ones. Two readers on the two CPUs of the
	// reference VM spread 16M to 25M lookups/s over fresh processes, one
	// reader 12.7M to 13.4M. The set-ups after the first are timed for
	// setup_s only.
	reps := sz.SetupReps
	var ix *concurrent.Index[uint64]
	defer func() {
		if ix != nil {
			ix.Close()
		}
	}()
	current := func() *concurrent.Index[uint64] { return ix }
	read := batchReader(current, qs, sz.Batch, check)
	readOne := batchReader(current, qs, 1, check)
	setupBuf := tr.buffer()
	var setups []float64
	var untraced, closed, find *loopStats
	setUp := func() error {
		if ix != nil {
			ix.Close()
			ix = nil
			releaseMemory()
		}
		t0 := time.Now()
		ix, err = concurrent.New(keys, manual)
		if err != nil {
			return err
		}
		t1 := time.Now()
		out, tag := ix.FindBatchTagged(qs[:sz.Batch], nil)
		if check(tag, 0, out) != statusOK {
			return fmt.Errorf("set-up: first batch answered wrongly")
		}
		t2 := time.Now()
		id := setupBuf.newID()
		setupBuf.add(0, id, "concurrent.New", t0, t1, sz.Keys)
		setupBuf.add(0, id, "concurrent.FindBatchTagged", t1, t2, sz.Batch)
		setupBuf.add(id, 0, "setup", t0, t2, 1)
		setups = append(setups, t2.Sub(t0).Seconds())
		return nil
	}
	if err := setUp(); err != nil {
		return nil, err
	}
	gc0 := readGC()
	minor0, _ := mapped.OSFaults()
	batch := func(d time.Duration) *loopStats { return closedLoop(readers, d, window, tr, selfCPU, read) }
	one := func(d time.Duration) *loopStats { return closedLoop(readers, d, window, tr, nil, readOne) }
	if cfg.Traced {
		bare := func(d time.Duration) *loopStats { return closedLoop(readers, d, window, nil, nil, read) }
		ls := rotate(phase(cfg, 0.6), slice, bare, batch, one)
		untraced, closed, find = ls[0], ls[1], ls[2]
	} else {
		ls := rotate(phase(cfg, 0.9), slice, batch, one)
		closed, find = ls[0], ls[1]
	}
	minor1, _ := mapped.OSFaults()
	gc1 := readGC()
	if cfg.Traced {
		lr, err := startLoopback(ix)
		if err != nil {
			return nil, err
		}
		err = runLadder(r, ladderInput{ix: ix, keys: keys, qs: qs, ranks: ranks, batch: sz.Batch, url: lr.url}, phase(cfg, 0.06), tr)
		if cerr := lr.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}

	// Freshness: a write is visible to the very next read.
	fresh, writes, counts := insertProbes(ix, keys, sz.FreshProbes, cfg.Seed+3, top, tr.buffer())
	r.count(counts)
	for len(setups) < reps {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	r.set("setup_s", medianF(setups), "s")
	r.set("fresh_p50_ms", medianF(fresh), "ms")
	r.set("concurrent.write_ns", medianF(writes), "ns")
	if cfg.Traced {
		setOverhead(r, untraced, closed)
		r.count(untraced.counts)
	}
	r.count(closed.counts)
	r.count(find.counts)
	if err := setReadMetrics(r, closed, find, sz.Batch); err != nil {
		return nil, err
	}
	r.set("mapped.minor_faults", float64(minor1-minor0), "count")
	setGCMetrics(r, gc0, gc1)

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	r.set("rss_mb", rss, "MB")
	setNotExercised(r, "loadgen.open_p50_us", "loadgen.open_p99_us", "loadgen.late_p99_us", "concurrent.compact_ms", "concurrent.pending_at_publish",
		"replica.publish_ms.delta", "replica.publish_ms.full", "replica.sync_ms.delta", "replica.sync_ms.full",
		"replica.artifact_bytes.delta", "replica.artifact_bytes.full", "replica.sync_failures",
		"replica.read_batch_p50_us", "replica.read_batch_p99_us")
	return r, finishTrace(cfg, r, tr)
}

// insertProbes inserts n seeded keys one at a time, each followed by a
// lookup of the new key, and returns per probe the time from the start
// of the Insert until the lookup answered with the new key counted (ms)
// and the Insert alone (ns). Reference ranks come from the original keys
// plus the keys inserted so far.
func insertProbes(ix *concurrent.Index[uint64], keys []uint64, n int, seed int64, top uint64, buf *spanBuf) (fresh, writes []float64, c opCounts) {
	rng := rand.New(rand.NewSource(seed))
	var added []uint64 // sorted
	out := make([]int, 0, 1)
	for p := 0; p < n; p++ {
		k := rng.Uint64() % top
		at := sort.Search(len(added), func(i int) bool { return added[i] >= k })
		added = append(added, 0)
		copy(added[at+1:], added[at:])
		added[at] = k
		want := kv.LowerBound(keys, k) + at

		t0 := time.Now()
		ix.Insert(k)
		t1 := time.Now()
		out, _ = ix.FindBatchTagged([]uint64{k}, out[:0])
		t2 := time.Now()
		id := buf.newID()
		buf.add(0, id, "concurrent.Insert", t0, t1, 1)
		buf.add(0, id, "concurrent.FindBatchTagged", t1, t2, 1)
		buf.add(id, 0, "fresh.probe", t0, t2, 1)
		st := statusOK
		if out[0] != want {
			st = statusWrong
		}
		c.add(st)
		fresh = append(fresh, float64(t2.Sub(t0))/1e6)
		writes = append(writes, float64(t1.Sub(t0)))
	}
	return fresh, writes, c
}

// finishTrace records the span count and writes the spans out.
func finishTrace(cfg runConfig, r *result, tr *tracer) error {
	if tr == nil {
		return nil
	}
	spans, dropped := tr.all()
	r.set("trace.spans", float64(len(spans)), "count")
	return writeTrace(tracePath(cfg), spans, dropped)
}

func tracePath(cfg runConfig) string {
	return fmt.Sprintf("%s/trace-%s.csv.gz", cfg.Work, cfg.Workload)
}
