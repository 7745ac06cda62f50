package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cdfmodel"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/serve"
)

// The ladder measures one rung per layer on the same keys and query
// stream, from the bottom up: core.Table.FindBatch, then
// concurrent.Index.FindBatchTagged (64 keys and 1 key), the coalescer,
// the handler driven through httptest with no socket, and finally one
// loopback HTTP connection. A layer's self time is its rung minus the
// rung below. Every rung but loopback runs with the workload's client
// count, as the measured phases do; loopback is one connection sending
// sequentially.

// ladderInput is what the rungs read.
type ladderInput struct {
	ix    *concurrent.Index[uint64]
	keys  []uint64 // the index's live keys, sorted
	qs    []uint64
	ranks []int32 // reference rank of every query against keys
	batch int
	url   string // base URL of a server over the same index
}

// rung runs f closed-loop for d and returns the mean ns per call.
func rung(r *result, tr *tracer, name string, workers int, d time.Duration, f op) (float64, error) {
	buf := tr.buffer()
	t0 := time.Now()
	st := closedLoop(workers, d, d, nil, nil, f)
	buf.add(0, 0, "ladder."+name, t0, time.Now(), int(st.counts.attempted))
	r.count(st.counts)
	if st.ok() == 0 {
		return 0, fmt.Errorf("ladder rung %s completed no calls", name)
	}
	return float64(st.sumNs) / float64(st.ok()), nil
}

// runLadder measures every rung for d each and sets the core.*,
// concurrent.* read, and serve.* per-layer metrics.
func runLadder(r *result, in ladderInput, d time.Duration, tr *tracer) error {
	check := staticCheck(in.ranks)
	one := func(off, rank int) status { return compare(in.ranks, off, []int{rank}) }
	n := len(in.qs)

	// core: a fresh table from the same keys and configuration the
	// concurrent index builds its base with.
	t0 := time.Now()
	table, err := core.Build(in.keys, cdfmodel.NewInterpolation(in.keys), core.Config{})
	if err != nil {
		return err
	}
	r.set("core.build_s", time.Since(t0).Seconds(), "s")
	r.set("core.size_bytes", float64(table.SizeBytes()), "bytes")
	r.set("core.log2_error", table.Log2Error(), "count")
	// Window is inclusive; an empty window (hi = lo-1) has width 0.
	var width int64
	for _, q := range in.qs {
		lo, hi := table.Window(q)
		width += int64(hi - lo + 1)
	}
	r.set("core.window_mean", float64(width)/float64(n), "count")
	outs := make([][]int, clients)
	coreNs, err := rung(r, tr, "core", clients, d, func(w, i int, _ *spanBuf) (time.Time, time.Time, status) {
		off := (i * in.batch) % n
		t0 := time.Now()
		out := table.FindBatch(in.qs[off:off+in.batch], outs[w][:0])
		t1 := time.Now()
		outs[w] = out
		return t0, t1, check(0, off, out)
	})
	if err != nil {
		return err
	}
	table = nil
	releaseMemory()
	r.set("core.find_batch_ns_per_key", coreNs/float64(in.batch), "ns")

	current := func() *concurrent.Index[uint64] { return in.ix }
	concNs, err := rung(r, tr, "concurrent", clients, d, batchReader(current, in.qs, in.batch, check))
	if err != nil {
		return err
	}
	r.set("concurrent.find_batch_tagged_ns_per_key", concNs/float64(in.batch), "ns")
	r.set("concurrent.self_ns_per_key", (concNs-coreNs)/float64(in.batch), "ns")
	oneNs, err := rung(r, tr, "concurrent_one", clients, d, batchReader(current, in.qs, 1, check))
	if err != nil {
		return err
	}
	r.set("concurrent.find_one_ns", oneNs, "ns")

	co := serve.NewCoalescer(in.ix, serve.CoalescerConfig{})
	ctx := context.Background()
	coNs, err := rung(r, tr, "coalescer", clients, d, func(_, i int, _ *spanBuf) (time.Time, time.Time, status) {
		off := i % n
		t0 := time.Now()
		rank, _, err := co.Find(ctx, in.qs[off])
		t1 := time.Now()
		if err != nil {
			return t0, t1, statusRejected
		}
		return t0, t1, one(off, rank)
	})
	st := co.Stats()
	co.Close()
	if err != nil {
		return err
	}
	r.set("serve.coalescer_find_ns", coNs, "ns")
	r.set("serve.coalescer_self_ns", coNs-oneNs, "ns")
	r.set("serve.coalescer_mean_wave", float64(st.Batched)/float64(max(st.Waves, 1)), "count")

	hNs, allocs, err := handlerRung(r, in, d, tr)
	if err != nil {
		return err
	}
	r.set("serve.handler_find_ns", hNs, "ns")
	r.set("serve.handler_self_ns", hNs-coNs, "ns")
	r.set("serve.handler_allocs_per_req", allocs, "count")

	client := newClient()
	defer client.CloseIdleConnections()
	lbNs, err := rung(r, tr, "loopback", 1, d, func(_, i int, _ *spanBuf) (time.Time, time.Time, status) {
		off := i % n
		return getFind(client, in.url, in.qs[off], func(rank int, _ uint64) status {
			return one(off, rank)
		})
	})
	if err != nil {
		return err
	}
	r.set("serve.loopback_rtt_us", lbNs/1e3, "us")
	r.set("serve.net_self_us", (lbNs-hNs)/1e3, "us")
	return nil
}

// handlerRung drives Handler.ServeHTTP through httptest with pre-built
// requests, and separately counts the allocations one request makes
// inside the handler.
func handlerRung(r *result, in ladderInput, d time.Duration, tr *tracer) (ns, allocs float64, err error) {
	co := serve.NewCoalescer(in.ix, serve.CoalescerConfig{})
	defer co.Close()
	h := serve.NewHandler(in.ix, co, serve.HandlerConfig{Coalesce: true}, nil)
	const perWorker = 4096
	n := len(in.qs)
	reqs := make([][]*http.Request, clients)
	for w := range reqs {
		reqs[w] = make([]*http.Request, perWorker)
		for j := range reqs[w] {
			off := (w*perWorker + j) % n
			reqs[w][j] = httptest.NewRequest(http.MethodGet, "/v1/find?key="+strconv.FormatUint(in.qs[off], 10), nil)
		}
	}
	ns, err = rung(r, tr, "handler", clients, d, func(w, i int, _ *spanBuf) (time.Time, time.Time, status) {
		j := (i / clients) % perWorker
		off := (w*perWorker + j) % n
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, reqs[w][j])
		t1 := time.Now()
		return t0, t1, decodeFind(rec.Code, rec.Body.Bytes(), func(rank int, _ uint64) status {
			return compare(in.ranks, off, []int{rank})
		})
	})
	if err != nil {
		return 0, 0, err
	}
	// Allocations: recorders are made before counting starts, so only
	// what ServeHTTP allocates is counted.
	const calls = 2000
	recorders := make([]*httptest.ResponseRecorder, calls)
	for j := range recorders {
		recorders[j] = httptest.NewRecorder()
	}
	m1 := mallocs()
	for j, rec := range recorders {
		h.ServeHTTP(rec, reqs[0][j%perWorker])
	}
	m2 := mallocs()
	return ns, float64(m2-m1) / calls, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// newClient returns an HTTP client holding at most one keep-alive
// connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// getFind sends GET /v1/find for key and judges the answer with judge
// after the response is fully read.
func getFind(c *http.Client, base string, key uint64, judge func(rank int, version uint64) status) (time.Time, time.Time, status) {
	url := base + "/v1/find?key=" + strconv.FormatUint(key, 10)
	t0 := time.Now()
	resp, err := c.Get(url)
	if err != nil {
		return t0, time.Now(), statusError
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return t0, t1, statusError
	}
	return t0, t1, decodeFind(resp.StatusCode, body, judge)
}

// decodeFind classifies a /v1/find response.
func decodeFind(code int, body []byte, judge func(rank int, version uint64) status) status {
	switch code {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return statusRejected
	default:
		return statusError
	}
	var fr struct {
		Rank    int    `json:"rank"`
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		return statusError
	}
	return judge(fr.Rank, fr.Version)
}

// loopback is an in-process HTTP server over an index, for the ladder's
// loopback rung on the in-process workloads.
type loopback struct {
	url  string
	co   *serve.Coalescer[uint64]
	stop context.CancelFunc
	errc chan error
}

func startLoopback(ix *concurrent.Index[uint64]) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	co := serve.NewCoalescer(ix, serve.CoalescerConfig{})
	h := serve.NewHandler(ix, co, serve.HandlerConfig{Coalesce: true}, nil)
	srv := serve.NewHTTPServer("", h, serve.ServerConfig{})
	ctx, stop := context.WithCancel(context.Background())
	lb := &loopback{url: "http://" + ln.Addr().String(), co: co, stop: stop, errc: make(chan error, 1)}
	go func() { lb.errc <- serve.RunListener(ctx, srv, ln, 5*time.Second, nil) }()
	return lb, nil
}

// close shuts the server down and waits for it.
func (lb *loopback) close() error {
	lb.stop()
	err := <-lb.errc
	lb.co.Close()
	return err
}
