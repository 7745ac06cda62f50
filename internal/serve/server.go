package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// ServerConfig is the hardened http.Server configuration shared by
// every HTTP listener in the repository (`shiftserver`, `shiftrepl
// serve`). The zero value gets the documented defaults. A bare
// http.ListenAndServe has none of these bounds: a client that opens a
// connection and never finishes its headers (slowloris) pins a goroutine
// forever, and there is no way to drain in-flight requests on SIGTERM.
type ServerConfig struct {
	// ReadHeaderTimeout bounds how long a connection may take to send
	// its request headers (default 5s) — the slowloris guard.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading one whole request, body included
	// (default 1m).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one whole response (default 5m —
	// artifact GETs stream multi-hundred-MB snapshots).
	WriteTimeout time.Duration
	// IdleTimeout closes keep-alive connections idle this long
	// (default 2m).
	IdleTimeout time.Duration
	// MaxHeaderBytes bounds request header size (default 1MiB).
	MaxHeaderBytes int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Minute
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.MaxHeaderBytes <= 0 {
		c.MaxHeaderBytes = 1 << 20
	}
	return c
}

// NewHTTPServer builds the hardened server: every timeout set, header
// size bounded. Run (or RunListener) adds graceful shutdown on top.
func NewHTTPServer(addr string, h http.Handler, cfg ServerConfig) *http.Server {
	cfg = cfg.withDefaults()
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
		MaxHeaderBytes:    cfg.MaxHeaderBytes,
	}
}

// Run listens on srv.Addr and serves until ctx is cancelled (wire it to
// signal.NotifyContext(SIGINT, SIGTERM) for signal-driven shutdown),
// then drains gracefully: onDrain (may be nil) flips the application to
// refuse new work with 503, and in-flight requests get up to drain to
// complete before the server is torn down. Returns nil on a clean
// drain; a drain-deadline overrun forcibly closes connections and
// reports it.
func Run(ctx context.Context, srv *http.Server, drain time.Duration, onDrain func()) error {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	return RunListener(ctx, srv, ln, drain, onDrain)
}

// RunListener is Run over an already-bound listener (so callers can
// report the bound address before serving, e.g. with ":0"). It chains a
// ConnState hook onto srv (keeping any hook already set) so the drain can
// close connections that never started a request.
func RunListener(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, onDrain func()) error {
	unused := trackUnused(srv)
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		// The listener died before anyone asked it to stop.
		return err
	case <-ctx.Done():
	}
	if onDrain != nil {
		onDrain()
	}
	if drain <= 0 {
		drain = 10 * time.Second
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	defer unused.drain().Stop()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		<-errc
		return fmt.Errorf("serve: drain exceeded %s: %w", drain, err)
	}
	return <-errc
}

// unusedGrace is how long a connection that has not started a request
// may still do so once the drain begins. A request whose bytes reached
// the server just before the drain is parsed well within it; a dial that
// never sends is closed when it ends. A var so tests can widen it.
var unusedGrace = 250 * time.Millisecond

// unusedConns tracks the connections of one server that were accepted
// but have not started a request (http.StateNew). http.Server.Shutdown
// counts such a connection as busy for its first 5s (net/http's guard
// against closing one whose request is still arriving), so a client
// that dials and never sends — a speculative dial left in a transport's
// idle pool, say — would hold the drain that long. drain gives them
// unusedGrace to start a request and then closes the rest, and any
// accepted after that point.
type unusedConns struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// trackUnused installs the tracking hook on srv ahead of the one already
// set, if any. The hook does O(1) work per state change.
func trackUnused(srv *http.Server) *unusedConns {
	u := &unusedConns{conns: make(map[net.Conn]struct{})}
	next := srv.ConnState
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		u.observe(c, st)
		if next != nil {
			next(c, st)
		}
	}
	return u
}

func (u *unusedConns) observe(c net.Conn, st http.ConnState) {
	if st == http.StateIdle {
		return // always follows StateActive, which already dropped c
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(u.conns, c)
	case u.closed:
		c.Close()
	default:
		u.conns[c] = struct{}{}
	}
}

// drain closes, after unusedGrace, every connection that is still
// waiting for its first request then. Stop the returned timer once the
// server is down.
func (u *unusedConns) drain() *time.Timer {
	return time.AfterFunc(unusedGrace, u.closeAll)
}

// closeAll closes every connection still waiting for its first request
// and makes the hook close later arrivals on accept.
func (u *unusedConns) closeAll() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.closed = true
	for c := range u.conns {
		c.Close()
	}
	clear(u.conns)
}
