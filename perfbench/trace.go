package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory during a traced run and writes them out
// when the run ends. Spans are recorded by the benchmark around its calls
// into each layer; the program under test is not instrumented. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu   sync.Mutex
	bufs []*spanBuf
}

// span is one timed call. Parent is 0 for a root; children of one parent
// must not overlap in time, so a parent's self time is its duration minus
// the sum of its children's.
type span struct {
	ID, Parent uint64
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Items      int   // keys or operations the call carried
}

// spanCap bounds one buffer: it keeps its goroutine's first spanCap
// spans and counts the rest as dropped. A traced closed loop of 1-key
// finds makes millions of calls, and keeping them all would make the
// trace file a hundred megabytes.
const spanCap = 1 << 14

// spanBuf is one goroutine's span storage; it needs no locking.
type spanBuf struct {
	t       *tracer
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buffer returns a fresh buffer for one goroutine (nil on a nil tracer).
func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t, spans: make([]span, 0, 1024)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// newID reserves a span ID, so children can name a parent that is
// recorded after them.
func (b *spanBuf) newID() uint64 {
	if b == nil {
		return 0
	}
	return b.t.nextID.Add(1)
}

// add records a finished span under id (0 = allocate one).
func (b *spanBuf) add(id, parent uint64, name string, start, end time.Time, items int) {
	if b == nil {
		return
	}
	if id == 0 {
		id = b.t.nextID.Add(1)
	}
	if len(b.spans) == spanCap {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(b.t.epoch)), End: int64(end.Sub(b.t.epoch)), Items: items,
	})
}

// all returns every recorded span and the number dropped.
func (t *tracer) all() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	dropped := 0
	for _, b := range t.bufs {
		out = append(out, b.spans...)
		dropped += b.dropped
	}
	return out, dropped
}

// spanSummary aggregates spans of one name.
type spanSummary struct {
	Count           int
	TotalNs, SelfNs int64
}

// summarize groups spans by name and computes each group's self time:
// its spans' durations minus the part their children cover.
func summarize(spans []span) map[string]*spanSummary {
	childNs := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*spanSummary)
	for _, s := range spans {
		g := out[s.Name]
		if g == nil {
			g = &spanSummary{}
			out[s.Name] = g
		}
		d := s.End - s.Start
		g.Count++
		g.TotalNs += d
		g.SelfNs += d - childNs[s.ID]
	}
	return out
}

// writeTrace writes every span as gzipped CSV plus a per-name summary
// with self times, and prints the summary to standard error.
func writeTrace(path string, spans []span, dropped int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns,items")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", s.ID, s.Parent, s.Name, s.Start, s.End, s.Items)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sum := summarize(spans)
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "trace: %d spans (%d dropped) written to %s\n", len(spans), dropped, path)
	fmt.Fprintf(os.Stderr, "%-32s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		g := sum[n]
		fmt.Fprintf(os.Stderr, "%-32s %10d %14.3f %14.3f\n", n, g.Count, float64(g.TotalNs)/1e6, float64(g.SelfNs)/1e6)
	}
	return nil
}
