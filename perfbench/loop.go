package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/kv"
)

// Inputs: every workload's keys, query streams and write schedules
// derive from its seed; the index only ever sees the generated values.

// genKeys returns n sorted face64 keys.
func genKeys(n int, seed int64) ([]uint64, error) {
	return dataset.Generate(dataset.Face, 64, n, seed)
}

// genQueries returns n queries uniform in [0, top).
func genQueries(n int, seed int64, top uint64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]uint64, n)
	for i := range qs {
		qs[i] = rng.Uint64() % top
	}
	return qs
}

// refRanks computes the expected answer for every query by binary search
// over the sorted key array, independently of any index structure.
func refRanks(keys, qs []uint64) []int32 {
	out := make([]int32, len(qs))
	var wg sync.WaitGroup
	chunk := (len(qs) + clients - 1) / clients
	for lo := 0; lo < len(qs); lo += chunk {
		hi := min(lo+chunk, len(qs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = int32(kv.LowerBound(keys, qs[i]))
			}
		}()
	}
	wg.Wait()
	return out
}

// status classifies one operation's outcome.
type status uint8

const (
	statusOK       status = iota
	statusWrong           // an answer disagreed with the reference
	statusError           // transport or protocol failure
	statusRejected        // the server refused (429/503)
)

// opCounts tallies outcomes. Every non-OK outcome is a failed operation.
type opCounts struct {
	attempted, wrong, errors, rejected int64
}

func (c *opCounts) add(s status) {
	c.attempted++
	switch s {
	case statusWrong:
		c.wrong++
	case statusError:
		c.errors++
	case statusRejected:
		c.rejected++
	}
}

func (c *opCounts) merge(o opCounts) {
	c.attempted += o.attempted
	c.wrong += o.wrong
	c.errors += o.errors
	c.rejected += o.rejected
}

func (c opCounts) failed() int64 { return c.wrong + c.errors + c.rejected }

// op performs call number i on worker w and reports when the call
// started and ended; checking the answer happens after end, outside the
// timed interval.
type op func(w, i int, buf *spanBuf) (start, end time.Time, st status)

// loopStats is one phase's outcome. The phase is cut into equal
// windows; each window's histogram holds the latencies of the successful
// calls that ended in it (closed loop) or were due in it (open loop).
// Calls a closed loop completed after its planned end fall in no window.
type loopStats struct {
	counts opCounts
	win    []hist
	// cpu is the CPU time the process under test used in each window,
	// when the phase was given a cpuMeter.
	cpu     []time.Duration
	winLen  time.Duration
	sumNs   int64 // total latency of the successful calls
	late    hist  // open loop only: how late each call started
	elapsed time.Duration
}

// newLoopStats cuts a phase of d into windows of about window (at
// least one).
func newLoopStats(d, window time.Duration) loopStats {
	n := max(int(d/window), 1)
	return loopStats{win: make([]hist, n), winLen: d / time.Duration(n)}
}

// ok is the number of successful calls.
func (s *loopStats) ok() int64 { return s.counts.attempted - s.counts.failed() }

// record adds a successful call's latency, placed by its offset from
// the phase start.
func (s *loopStats) record(lat, at time.Duration) {
	s.sumNs += int64(lat)
	if w := int(at / s.winLen); w < len(s.win) {
		s.win[w].add(int64(lat))
	}
}

func (s *loopStats) merge(o *loopStats) {
	s.counts.merge(o.counts)
	for i := range o.win {
		s.win[i].merge(&o.win[i])
	}
	s.sumNs += o.sumNs
	s.late.merge(&o.late)
}

// join appends o's windows after s's, for phases measured in pieces; a
// nil s starts the sequence.
func (s *loopStats) join(o *loopStats) *loopStats {
	if s == nil {
		return o
	}
	s.counts.merge(o.counts)
	s.win = append(s.win, o.win...)
	s.cpu = append(s.cpu, o.cpu...)
	s.sumNs += o.sumNs
	s.late.merge(&o.late)
	s.elapsed += o.elapsed
	return s
}

// closedLoop runs workers goroutines, each issuing its next call as soon
// as the previous one returns, for d, in windows of about window. With a
// cpu meter it also records the CPU time used in each window.
func closedLoop(workers int, d, window time.Duration, tr *tracer, cpu cpuMeter, f op) *loopStats {
	per := make([]loopStats, workers)
	for w := range per {
		per[w] = newLoopStats(d, window)
	}
	start := time.Now()
	cpuWin := sampleCPU(cpu, start, len(per[0].win), per[0].winLen)
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := tr.buffer()
			st := &per[w]
			for i := w; ; i += workers {
				t0, t1, s := f(w, i, buf)
				st.counts.add(s)
				if s == statusOK {
					st.record(t1.Sub(t0), t1.Sub(start))
				}
				if t1.After(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	out := newLoopStats(d, window)
	out.elapsed = time.Since(start)
	for w := range per {
		out.merge(&per[w])
	}
	out.cpu = <-cpuWin
	return &out
}

// rotate runs each of loops in turn for slice at a time until each has
// run for about total/len(loops), and returns each loop's stats joined
// over its turns. Phases that take turns sample the host over the whole
// run, where phases run one after the other each see only their part of
// it; the host's slow stretches last seconds to minutes.
func rotate(total, slice time.Duration, loops ...func(d time.Duration) *loopStats) []*loopStats {
	out := make([]*loopStats, len(loops))
	turns := max(int(total/time.Duration(len(loops))/slice), 1)
	for t := 0; t < turns; t++ {
		for i, loop := range loops {
			out[i] = out[i].join(loop(slice))
		}
	}
	return out
}

// cpuMeter reads the CPU time the process under test has used so far.
type cpuMeter func() (time.Duration, error)

// sampleCPU reads cpu at every window boundary from start, on a
// goroutine of its own, and sends the CPU time of each of the n windows
// (nil without a meter, or if a read fails).
func sampleCPU(cpu cpuMeter, start time.Time, n int, winLen time.Duration) <-chan []time.Duration {
	done := make(chan []time.Duration, 1)
	if cpu == nil {
		done <- nil
		return done
	}
	go func() {
		prev, err := cpu()
		wins := make([]time.Duration, n)
		for w := 0; w < n && err == nil; w++ {
			waitUntil(start.Add(time.Duration(w+1) * winLen))
			var now time.Duration
			now, err = cpu()
			wins[w] = now - prev
			prev = now
		}
		if err != nil {
			wins = nil
		}
		done <- wins
	}()
	return done
}

// openLoop issues calls on a fixed schedule of rate calls per second for
// d, spread round-robin over workers goroutines (one connection each),
// whether or not the server keeps up.
//
// Latency is what a punctual client would see: each call counts from its
// due time, plus any wait for its connection to finish the calls before
// it, using the service times measured. So a slow response is charged to
// every later call it delays. The generator's own lateness in waking up
// is not: on the 2-CPU reference VM a bare nanosleep loop wakes 1.7 ms
// late at p99 (5.6 ms at a 1 ms period), which would otherwise swamp a
// 150 µs request. That lateness is reported as loadgen.late_p99_us.
func openLoop(workers int, d, window time.Duration, rate float64, tr *tracer, f op) *loopStats {
	interval := float64(time.Second) / rate
	total := int(d.Seconds() * rate)
	per := make([]loopStats, workers)
	for w := range per {
		per[w] = newLoopStats(d, window)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := tr.buffer()
			st := &per[w]
			var free time.Duration // when a punctual client's connection frees up
			for i := w; i < total; i += workers {
				due := time.Duration(float64(i) * interval)
				sched := start.Add(due)
				waitUntil(sched)
				t0, t1, s := f(w, i, buf)
				st.counts.add(s)
				st.late.add(int64(t0.Sub(sched)))
				free = max(free, due) + t1.Sub(t0)
				if s == statusOK {
					st.record(free-due, due)
				}
			}
		}()
	}
	wg.Wait()
	out := newLoopStats(d, window)
	out.elapsed = time.Since(start)
	for w := range per {
		out.merge(&per[w])
	}
	return &out
}

// waitUntil blocks the thread in nanosleep until t. Its wake-up is tens
// of microseconds late, where the runtime's sleep can be a millisecond
// late.
func waitUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// windowedMetrics sets, from one phase's windows, the median over
// windows of each window's p50 and p99 latency (prefix_p50_unit,
// prefix_p99_unit) and, when rateName is not empty, of each window's
// successful calls per second times perCall. A window is a repetition
// within the run; their median resists the host's transient
// interference, which a single whole-phase figure does not. A window
// too sparse for a percentile, a stall, gives none.
func windowedMetrics(r *result, st *loopStats, prefix, unit, rateName string, perCall float64) error {
	div := map[string]float64{"us": 1e3, "ms": 1e6}[unit]
	var p50s, p99s, rates []float64
	var samples uint64
	for i := range st.win {
		h := &st.win[i]
		if p50, ok := h.percentile(0.50); ok {
			p50s = append(p50s, float64(p50)/div)
		}
		if p99, ok := h.percentile(0.99); ok {
			p99s = append(p99s, float64(p99)/div)
		}
		rates = append(rates, float64(h.n)*perCall/st.winLen.Seconds())
		samples += h.n
	}
	if len(p50s) == 0 || len(p99s) == 0 {
		return fmt.Errorf("%s: no %v window holds enough samples for its p99", prefix, st.winLen)
	}
	r.set(prefix+"_p50_"+unit, medianF(p50s), unit)
	r.set(prefix+"_p99_"+unit, medianF(p99s), unit)
	r.Samples[prefix+"_p50_"+unit] = int(samples)
	r.Samples[prefix+"_p99_"+unit] = int(samples)
	if rateName != "" {
		r.set(rateName, medianF(rates), "1/s")
	}
	return nil
}

// cpuPerCall returns the median over a phase's windows of the CPU time
// per successful call, in microseconds.
func cpuPerCall(st *loopStats) (float64, error) {
	if len(st.cpu) != len(st.win) {
		return 0, fmt.Errorf("the phase's CPU time was not sampled")
	}
	var per []float64
	for i, c := range st.cpu {
		if n := st.win[i].n; n > 0 {
			per = append(per, float64(c)/1e3/float64(n))
		}
	}
	if len(per) == 0 {
		return 0, fmt.Errorf("no window completed a call")
	}
	return medianF(per), nil
}

// Process measurements.

// selfCPU returns the benchmark process's user+system CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procCPU returns the CPU time all threads of process pid have run, in
// nanoseconds, from /proc/<pid>/task/*/schedstat.
func procCPU(pid string) (time.Duration, error) {
	dir := "/proc/" + pid + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited since the listing
		}
		f, _, _ := strings.Cut(string(data), " ")
		ns, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s/%s/schedstat", dir, t.Name())
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// gcStats snapshots the benchmark process's collector counters.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{ms.NumGC, ms.PauseTotalNs}
}

// setGCMetrics reports the collections and pause time between two
// snapshots.
func setGCMetrics(r *result, before, after gcStats) {
	r.set("runtime.gc_cycles", float64(after.cycles-before.cycles), "count")
	r.set("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms")
}
