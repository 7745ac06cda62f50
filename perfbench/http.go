package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/concurrent"
	"repro/internal/replica"
)

// server is a child shiftserver process.
type server struct {
	cmd    *exec.Cmd
	pid    string
	url    string
	exited chan error
}

// startServer runs shiftserver with its default flags over store,
// listening on an ephemeral loopback port, and returns once it reports
// the address it listens on.
func startServer(bin, store, dir string) (*server, error) {
	if bin == "" {
		return nil, fmt.Errorf("no shiftserver binary given (-server-bin)")
	}
	cmd := exec.Command(bin, "-store", store, "-dir", dir, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// Should this process die without stopping it, the server dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting shiftserver: %w", err)
	}
	s := &server{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
			}
		}
		// Stdout is drained to EOF before Wait, as exec requires.
		s.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case err := <-s.exited:
		return nil, fmt.Errorf("shiftserver exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill() // the error is moot: Wait below reports the exit
		<-s.exited
		return nil, fmt.Errorf("shiftserver did not start listening within 60s")
	}
}

// stop sends SIGTERM, lets the server drain, and waits for it to exit
// (killing it if the drain hangs).
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("shiftserver: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill() // the drain hung; Wait reports the kill
		<-s.exited
		return fmt.Errorf("shiftserver did not drain within 30s")
	}
}

// cpu returns the server's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	return procCPU(s.pid)
}

// published is one set-up of the served stack: the primary index in
// this process, its publisher, and the child server replicating it.
type published struct {
	ix  *concurrent.Index[uint64]
	pub *replica.Publisher[uint64]
	srv *server
}

func (p *published) close() error {
	p.ix.Close()
	return p.srv.stop()
}

// runHTTP is http-find-200k: 200k keys, small enough for the L2 cache,
// published to a store and served by a child shiftserver. Two keep-alive
// connections send GET /v1/find; the index is a small share of request
// time, so the handler, coalescer, net/http and JSON dominate.
func runHTTP(cfg runConfig) (*result, error) {
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
	work, err := os.MkdirTemp(cfg.Work, "http-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	ctx := context.Background()

	// Each set-up builds, publishes, starts a fresh server and gets a
	// first correct answer, then measures its share of every phase, so
	// the windows the metrics are medians over span all the servers.
	reps := sz.SetupReps
	share := func(s float64) time.Duration { return phase(cfg, s) / time.Duration(reps) }
	var live *published
	defer func() {
		if live != nil {
			_ = live.close() // error path only; the success path closes explicitly
		}
	}()
	var url string
	conns := make([]*http.Client, clients)
	read := func(w, i int, buf *spanBuf) (time.Time, time.Time, status) {
		off := i % len(qs)
		t0, t1, st := getFind(conns[w], url, qs[off], func(rank int, v uint64) status {
			if v != 1 || rank != int(ranks[off]) {
				return statusWrong
			}
			return statusOK
		})
		buf.add(0, 0, "http.find", t0, t1, 1)
		return t0, t1, st
	}
	setupBuf := tr.buffer()
	var setups, rss []float64
	var untraced, closed, find, open *loopStats
	gc0 := readGC()
	for rep := 0; rep < reps; rep++ {
		if live != nil {
			err := live.close()
			live = nil
			if err != nil {
				return nil, err
			}
			releaseMemory()
		}
		dir := filepath.Join(work, strconv.Itoa(rep))
		store := replica.DirStore{Dir: filepath.Join(dir, "store")}
		if err := os.MkdirAll(store.Dir, 0o755); err != nil {
			return nil, err
		}
		id := setupBuf.newID()
		t0 := time.Now()
		ix, err := concurrent.New(keys, manual)
		if err != nil {
			return nil, err
		}
		pub, err := replica.NewPublisher(ctx, store, ix, replica.PublisherConfig{Spool: dir})
		if err != nil {
			ix.Close()
			return nil, err
		}
		t1 := time.Now()
		if _, _, err := pub.Publish(ctx); err != nil {
			ix.Close()
			return nil, err
		}
		t2 := time.Now()
		srv, err := startServer(cfg.ServerBin, store.Dir, filepath.Join(dir, "replica"))
		if err != nil {
			ix.Close()
			return nil, err
		}
		live = &published{ix: ix, pub: pub, srv: srv}
		// The server runs on one CPU and, in the measured phases, this
		// process, the load, on the other, so neither is measured
		// through the scheduler's choice of where the other runs.
		if err := pin(srv.pid, 1); err != nil {
			return nil, err
		}
		url = srv.url
		for w := range conns {
			conns[w] = newClient()
		}
		t3 := time.Now()
		_, t4, st := read(0, 0, nil)
		if st != statusOK {
			return nil, fmt.Errorf("set-up: first answer failed (%v)", st)
		}
		setupBuf.add(0, id, "concurrent.New", t0, t1, sz.Keys)
		setupBuf.add(0, id, "replica.Publish", t1, t2, 1)
		setupBuf.add(0, id, "shiftserver.start", t2, t3, 1)
		setupBuf.add(0, id, "http.find", t3, t4, 1)
		setupBuf.add(id, 0, "setup", t0, t4, 1)
		setups = append(setups, t4.Sub(t0).Seconds())

		if cfg.Traced && rep == 0 {
			err := runLadder(r, ladderInput{ix: ix, keys: keys, qs: qs, ranks: ranks, batch: 64, url: url}, phase(cfg, 0.06), tr)
			if err != nil {
				return nil, err
			}
		}
		if err := pin("self", 0); err != nil {
			return nil, err
		}
		batchShare, findShare := 0.45, 0.45
		if cfg.Traced {
			untraced = untraced.join(closedLoop(clients, share(0.2), window, nil, nil, read))
			batchShare, findShare = 0.2, 0.2
		}
		closed = closed.join(closedLoop(clients, share(batchShare), window, tr, srv.cpu, read))
		// One connection sending sequentially: read's worker 0.
		find = find.join(closedLoop(1, share(findShare), window, tr, nil, read))
		if cfg.Traced {
			open = open.join(openLoop(clients, share(0.2), window, sz.OpenRate, tr, read))
		}
		if err := unpin(); err != nil {
			return nil, err
		}
		m, err := peakRSSMB(srv.pid)
		if err != nil {
			return nil, err
		}
		rss = append(rss, m)
		for _, c := range conns {
			c.CloseIdleConnections()
		}
	}
	gc1 := readGC()
	r.set("setup_s", medianF(setups), "s")
	r.set("rss_mb", medianF(rss), "MB")
	if cfg.Traced {
		setOverhead(r, untraced, closed)
		r.count(untraced.counts)
	}
	r.count(closed.counts)
	r.count(find.counts)
	if err := setReadMetrics(r, closed, find, 1); err != nil {
		return nil, err
	}
	if cfg.Traced {
		r.count(open.counts)
		if err := setOpenLoop(r, open); err != nil {
			return nil, err
		}
	}
	setGCMetrics(r, gc0, gc1)

	err = live.close()
	live = nil
	if err != nil {
		return nil, err
	}
	if cfg.Traced {
		if err := measureReplication(cfg, r, tr, keys, qs[:min(len(qs), replicaPool)], phase(cfg, 0.2)); err != nil {
			return nil, err
		}
	}
	return r, finishTrace(cfg, r, tr)
}
