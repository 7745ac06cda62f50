package serve

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNewHTTPServerHardened: the zero config still yields a server with
// every protective bound set — the whole point over bare
// http.ListenAndServe.
func TestNewHTTPServerHardened(t *testing.T) {
	srv := NewHTTPServer(":0", http.NotFoundHandler(), ServerConfig{})
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset (slowloris guard missing)")
	}
	if srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("timeouts unset: read %v write %v idle %v",
			srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	if srv.MaxHeaderBytes <= 0 {
		t.Error("MaxHeaderBytes unset")
	}
}

// TestRunListenerGracefulDrain: cancelling the run context must (1) fire
// onDrain, (2) let the in-flight request finish and reach the client
// intact, (3) return nil, and (4) stop accepting new connections.
func TestRunListenerGracefulDrain(t *testing.T) {
	var drained atomic.Bool
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(250 * time.Millisecond)
		io.WriteString(w, "done")
	})
	srv := NewHTTPServer("", slow, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- RunListener(ctx, srv, ln, 5*time.Second, func() { drained.Store(true) }) }()

	// In-flight request racing the shutdown.
	resp := make(chan string, 1)
	reqErr := make(chan error, 1)
	go func() {
		r, err := http.Get("http://" + addr + "/")
		if err != nil {
			reqErr <- err
			return
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		resp <- string(b)
	}()

	time.Sleep(50 * time.Millisecond) // request is in the handler's sleep
	cancel()

	select {
	case body := <-resp:
		if body != "done" {
			t.Fatalf("in-flight response = %q, want %q", body, "done")
		}
	case err := <-reqErr:
		t.Fatalf("in-flight request killed by shutdown: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("RunListener = %v, want nil (clean drain)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunListener never returned")
	}
	if !drained.Load() {
		t.Error("onDrain never called")
	}
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestRunListenerDrainDeadline: a handler that outlives the drain window
// forces a hard close and a reported error.
func TestRunListenerDrainDeadline(t *testing.T) {
	stuck := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
	})
	srv := NewHTTPServer("", stuck, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- RunListener(ctx, srv, ln, 100*time.Millisecond, nil) }()

	go func() {
		r, err := http.Get("http://" + ln.Addr().String() + "/")
		if err == nil {
			r.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("RunListener = nil, want drain-deadline error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunListener never returned after deadline overrun")
	}
}

// TestRunListenerDrainClosesUnusedConns: a connection that was dialled
// but never sent a request must not hold the drain. http.Server.Shutdown
// counts such a connection (http.StateNew) as busy for 5s, so without
// help one idle dial stalls the whole drain window. The server's own
// ConnState hook must keep firing alongside the drain tracking.
func TestRunListenerDrainClosesUnusedConns(t *testing.T) {
	srv := NewHTTPServer("", http.NotFoundHandler(), ServerConfig{})
	var accepted atomic.Int64
	srv.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			accepted.Add(1)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const drain = 2 * time.Second
	runErr := make(chan error, 1)
	go func() { runErr <- RunListener(ctx, srv, ln, drain, nil) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for accepted.Load() == 0 { // the server has seen the connection
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("RunListener = %v, want nil (clean drain)", err)
		}
	case <-time.After(2 * drain):
		t.Fatal("RunListener never returned")
	}
	if took := time.Since(start); took > drain/2 {
		t.Fatalf("drain took %v with one unused connection open, want well under %v", took, drain)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("unused connection still open after the drain")
	}
}

// closeSignalListener reports when the server closes it, which
// RunListener's drain does after it has started tracking unused
// connections.
type closeSignalListener struct {
	net.Listener
	once   sync.Once
	closed chan struct{}
}

func (l *closeSignalListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return l.Listener.Close()
}

// TestRunListenerDrainServesArrivingRequest: a connection whose request
// is still arriving when the drain starts (its headers incomplete, so
// still http.StateNew) is not cut off: once the headers complete within
// the grace it gets its answer, and the drain stays clean.
func TestRunListenerDrainServesArrivingRequest(t *testing.T) {
	defer func(g time.Duration) { unusedGrace = g }(unusedGrace)
	unusedGrace = time.Minute // longer than the drain: no timing race

	srv := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "done")
	}), ServerConfig{})
	var accepted atomic.Int64
	srv.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			accepted.Add(1)
		}
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &closeSignalListener{Listener: inner, closed: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const drain = 2 * time.Second
	runErr := make(chan error, 1)
	go func() { runErr <- RunListener(ctx, srv, ln, drain, nil) }()

	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	for accepted.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	cancel()
	<-ln.closed // the drain has started
	if _, err := io.WriteString(conn, "\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * drain))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("request arriving at drain start got no response: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "done" {
		t.Fatalf("got %d %q, want 200 \"done\"", resp.StatusCode, body)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("RunListener = %v, want nil (clean drain)", err)
		}
	case <-time.After(2 * drain):
		t.Fatal("RunListener never returned")
	}
}
