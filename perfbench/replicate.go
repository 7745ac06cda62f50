package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/concurrent"
	"repro/internal/kv"
	"repro/internal/mapped"
	"repro/internal/replica"
	"repro/internal/serve"
)

// oracles holds the reference ranks of the query pool for each recent
// version, recorded before the version is published.
type oracles struct {
	mu sync.RWMutex
	by map[uint64][]int32
}

// keepVersions bounds how many versions' oracles stay in memory; a
// reader only ever sees the version installed now or the one before.
const keepVersions = 8

func (o *oracles) put(v uint64, ranks []int32) {
	o.mu.Lock()
	o.by[v] = ranks
	delete(o.by, v-keepVersions)
	o.mu.Unlock()
}

func (o *oracles) get(v uint64) []int32 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.by[v]
}

// check judges answers against the oracle of the version that served
// them.
func (o *oracles) check(tag uint64, off int, got []int) status {
	want := o.get(tag)
	if want == nil {
		return statusWrong
	}
	return compare(want, off, got)
}

// writerStats is what the writer measured, one entry per version.
type writerStats struct {
	freshMs           []float64
	writeNsPerOp      []float64
	compactMs         []float64
	pending           []float64
	publishMs, syncMs map[bool][]float64 // by full
	artifactBytes     map[bool][]float64
	syncFailures      int
	counts            opCounts
}

// replicated is one set-up: a primary with its publisher and a replica
// syncing from the same store.
type replicated struct {
	primary *concurrent.Index[uint64]
	pub     *replica.Publisher[uint64]
	rep     *replica.Replica[uint64]
}

func (s *replicated) close() {
	s.rep.Close()
	s.primary.Close()
}

// measureReplication is the replication phase of http-find-200k's
// traced run: writes beside reads. A primary over keys applies a seeded
// Insert/Delete schedule and publishes a version every Cadence,
// compacting before every 4th so that version ships as a full snapshot;
// an in-process replica syncs after each publish while one reader
// goroutine reads it for d. Every answer is checked against the oracle
// of the version that served it. It sets the replica.* metrics and the
// concurrent write, compaction and pending-write metrics.
//
// This phase is not an end-to-end workload of its own: its read rate
// moved 20-25% (IQR over median) between runs on the reference VM, with
// the writer and the reader sharing its two CPUs, beyond a bound a
// regression gate can use.
func measureReplication(cfg runConfig, r *result, tr *tracer, keys, pool []uint64, d time.Duration) error {
	sz := cfg.Size
	top := keys[len(keys)-1] + 1
	v1 := refRanks(keys, pool)
	orc := &oracles{by: map[uint64][]int32{1: v1}}
	work, err := os.MkdirTemp(cfg.Work, "replicate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	ctx := context.Background()

	// Set-up: build the primary, publish version 1, sync a fresh replica
	// and read a first correct batch from it.
	store := replica.DirStore{Dir: filepath.Join(work, "store")}
	if err := os.MkdirAll(store.Dir, 0o755); err != nil {
		return err
	}
	primary, err := concurrent.New(keys, manual)
	if err != nil {
		return err
	}
	pub, err := replica.NewPublisher(ctx, store, primary, replica.PublisherConfig{Spool: work})
	if err != nil {
		primary.Close()
		return err
	}
	if _, _, err := pub.Publish(ctx); err != nil {
		primary.Close()
		return err
	}
	rp, err := replica.NewReplica[uint64](store, filepath.Join(work, "replica"), replica.ReplicaConfig{})
	if err != nil {
		primary.Close()
		return err
	}
	live := &replicated{primary: primary, pub: pub, rep: rp}
	defer live.close()
	if err := rp.Sync(ctx); err != nil {
		return err
	}
	serving := rp.Index()
	const batch = 64
	if out, tag := serving.FindBatchTagged(pool[:batch], nil); orc.check(tag, 0, out) != statusOK {
		return fmt.Errorf("replication set-up: first batch answered wrongly (version %d)", tag)
	}
	read := batchReader(func() *concurrent.Index[uint64] { return serving }, pool, batch, orc.check)

	// The writer runs beside the one reader for the whole phase; the
	// reader's first cycle, before any delta is installed, is not
	// measured.
	cycle := 4 * sz.Cadence
	lm := newLiveModel(keys, v1)
	stop := make(chan struct{})
	var ws *writerStats
	var werr error
	var wg sync.WaitGroup
	minor0, _ := mapped.OSFaults()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws, werr = runWriter(ctx, live, lm, pool, top, orc, sz, cfg.Seed+2, start, stop, tr.buffer())
	}()
	r.count(closedLoop(readers, cycle, cycle, nil, nil, read).counts)
	reads := closedLoop(readers, max(d/cycle, 1)*cycle, cycle, tr, nil, read)
	minor1, _ := mapped.OSFaults()
	close(stop)
	wg.Wait()
	if werr != nil {
		return fmt.Errorf("writer: %w", werr)
	}
	// The write-schedule model must agree with the repository's own
	// oracle, a scan of the last published state.
	final := lm.ranks(pool)
	for i, v := range serve.OracleRanks(live.primary.Published(), pool) {
		if int(final[i]) != v {
			return fmt.Errorf("reference ranks disagree with serve.OracleRanks at query %d: %d vs %d", i, final[i], v)
		}
	}
	r.count(reads.counts)
	r.count(ws.counts)
	if len(ws.freshMs) == 0 {
		return fmt.Errorf("writer published no version during the run")
	}
	r.set("fresh_p50_ms", medianF(ws.freshMs), "ms")
	if err := windowedMetrics(r, reads, "replica.read_batch", "us", "", 0); err != nil {
		return err
	}
	r.set("mapped.minor_faults", float64(minor1-minor0), "count")
	r.set("concurrent.write_ns", medianF(ws.writeNsPerOp), "ns")
	r.set("concurrent.compact_ms", medianF(ws.compactMs), "ms")
	r.set("concurrent.pending_at_publish", medianF(ws.pending), "count")
	for _, full := range []bool{false, true} {
		kind := map[bool]string{false: "delta", true: "full"}[full]
		r.set("replica.publish_ms."+kind, medianF(ws.publishMs[full]), "ms")
		r.set("replica.sync_ms."+kind, medianF(ws.syncMs[full]), "ms")
		r.set("replica.artifact_bytes."+kind, medianF(ws.artifactBytes[full]), "bytes")
	}
	r.set("replica.sync_failures", float64(ws.syncFailures), "count")
	return nil
}

// runWriter publishes one version per cadence tick until stop closes:
// seeded writes, a compaction before every 4th version, the version's
// oracle, Publish, then Sync on the replica. Freshness is the time from
// the start of Publish until the replica serves the new version.
func runWriter(ctx context.Context, s *replicated, lm *liveModel, pool []uint64, top uint64, orc *oracles,
	sz sizes, seed int64, start time.Time, stop <-chan struct{}, buf *spanBuf) (*writerStats, error) {
	rng := rand.New(rand.NewSource(seed))
	ws := &writerStats{
		publishMs:     map[bool][]float64{},
		syncMs:        map[bool][]float64{},
		artifactBytes: map[bool][]float64{},
	}
	for tick := 1; ; tick++ {
		select {
		case <-stop:
			return ws, nil
		case <-time.After(time.Until(start.Add(time.Duration(tick) * sz.Cadence))):
		}
		id := buf.newID()
		t0 := time.Now()
		for w := 0; w < sz.WritesPerVersion; w++ {
			if w%4 == 0 {
				k := lm.base[rng.Intn(len(lm.base))]
				s.primary.Delete(k)
				lm.delete(k)
			} else {
				k := rng.Uint64() % top
				s.primary.Insert(k)
				lm.insert(k)
			}
		}
		t1 := time.Now()
		buf.add(0, id, "concurrent.write", t0, t1, sz.WritesPerVersion)
		ws.writeNsPerOp = append(ws.writeNsPerOp, float64(t1.Sub(t0))/float64(sz.WritesPerVersion))
		version := s.pub.Version() + 1
		if version%4 == 0 {
			if err := s.primary.Compact(); err != nil {
				return nil, err
			}
			t2 := time.Now()
			buf.add(0, id, "concurrent.Compact", t1, t2, 1)
			ws.compactMs = append(ws.compactMs, float64(t2.Sub(t1))/1e6)
			t1 = t2
		}
		ws.pending = append(ws.pending, float64(s.primary.Pending()))
		orc.put(version, lm.ranks(pool))
		tp := time.Now()
		buf.add(0, id, "bench.oracle", t1, tp, len(pool))
		got, full, err := s.pub.Publish(ctx)
		if err != nil {
			return nil, err
		}
		if got != version {
			return nil, fmt.Errorf("published version %d, expected %d", got, version)
		}
		ts := time.Now()
		kind := map[bool]string{false: "delta", true: "full"}[full]
		buf.add(0, id, "replica.Publish."+kind, tp, ts, 1)
		ws.publishMs[full] = append(ws.publishMs[full], float64(ts.Sub(tp))/1e6)
		m := s.pub.Manifest()
		if e := m.Lookup(version); e != nil {
			ws.artifactBytes[full] = append(ws.artifactBytes[full], float64(e.Size))
		}
		serr := s.rep.Sync(ctx)
		te := time.Now()
		buf.add(0, id, "replica.Sync."+kind, ts, te, 1)
		buf.add(id, 0, "writer.version", t0, te, 1)
		if serr != nil || s.rep.Index().Tag() != version {
			ws.syncFailures++
			ws.counts.add(statusError)
			continue
		}
		ws.counts.add(statusOK)
		ws.syncMs[full] = append(ws.syncMs[full], float64(te.Sub(ts))/1e6)
		ws.freshMs = append(ws.freshMs, float64(te.Sub(tp))/1e6)
	}
}

// liveModel tracks the primary's live key multiset from the write
// schedule alone — the base keys plus every insert minus every delete
// that found a live key — so each version's reference ranks cost two
// small binary searches per query instead of a scan of the index.
type liveModel struct {
	base      []uint64 // sorted initial keys
	baseRanks []int32  // reference ranks of the pool against base
	ins, del  []uint64 // sorted multisets, rebuilt by ranks
	insN      map[uint64]int
	delN      map[uint64]int
	dirty     bool
}

func newLiveModel(base []uint64, baseRanks []int32) *liveModel {
	return &liveModel{base: base, baseRanks: baseRanks, insN: map[uint64]int{}, delN: map[uint64]int{}}
}

func (m *liveModel) insert(k uint64) {
	m.insN[k]++
	m.ins = append(m.ins, k)
	m.dirty = true
}

// delete removes one live occurrence of k, if there is one, as
// concurrent.Index.Delete does.
func (m *liveModel) delete(k uint64) {
	lo, hi := kv.EqualRange(m.base, k)
	if hi-lo+m.insN[k]-m.delN[k] <= 0 {
		return
	}
	m.delN[k]++
	m.del = append(m.del, k)
	m.dirty = true
}

// ranks returns the lower-bound rank of every pool query among the live
// keys.
func (m *liveModel) ranks(pool []uint64) []int32 {
	if m.dirty {
		slices.Sort(m.ins)
		slices.Sort(m.del)
		m.dirty = false
	}
	out := make([]int32, len(pool))
	for i, q := range pool {
		out[i] = m.baseRanks[i] + int32(kv.LowerBound(m.ins, q)-kv.LowerBound(m.del, q))
	}
	return out
}
