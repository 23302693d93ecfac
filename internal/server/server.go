package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"statsize"
)

// Config parameterizes one daemon instance. The zero value is usable:
// Normalize fills every unset knob with the documented default.
type Config struct {
	// Addr is the listen address for ListenAndServe (":8790" default).
	Addr string
	// MaxSessions caps the live session pool — the daemon's memory
	// budget proxy, since each session holds a full SSTA analysis.
	// Beyond it the least-recently-used unleased session is evicted;
	// with every session leased, opens fail 503. Default 64.
	MaxSessions int
	// IdleTimeout evicts sessions unleased for this long. Zero means
	// the default (5m); negative disables idle eviction.
	IdleTimeout time.Duration
	// SweepEvery is the janitor period (default 15s).
	SweepEvery time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown: in-flight requests get
	// this long to finish after streams are canceled; then the
	// listener closes hard. Default 10s.
	DrainTimeout time.Duration
	// Logf sinks operational messages (default log.Printf); set to a
	// no-op in tests.
	Logf func(format string, args ...any)

	// Admission control. Two weighted work classes bound how much the
	// daemon accepts at once: the query class (what-if, resize,
	// checkpoint/rollback, metadata) and the heavy class (session
	// opens, analyze, optimizer runs). Each class admits up to its
	// slot count concurrently and parks a bounded queue beyond that;
	// overflow is shed fast with 429 and a computed Retry-After.
	DisableAdmission bool
	// QuerySlots caps concurrently executing query-class requests
	// (default 64).
	QuerySlots int
	// HeavySlots caps concurrently executing heavy-class requests
	// (default 8).
	HeavySlots int
	// QueryQueue / HeavyQueue bound the per-class admission queues
	// (defaults 256 and 16).
	QueryQueue int
	HeavyQueue int
	// QueueWait bounds how long an over-capacity request may wait for
	// a slot before it is shed (default 500ms) — the queue absorbs
	// bursts, it does not hide sustained overload.
	QueueWait time.Duration

	// MaxDeadline clamps the per-request X-Deadline-Ms budget (and
	// applies to requests that send none). Default 2m; negative
	// disables the ceiling.
	MaxDeadline time.Duration
	// RunLinger is how long a detached optimize run survives without
	// any subscriber (cancel-on-disconnect grace) and how long its
	// recorded history stays attachable after it finishes. Default 10s.
	RunLinger time.Duration

	// Middleware, when non-nil, wraps the daemon's full HTTP surface
	// (outside the panic recoverer). perfbench's span tracer is its one
	// user; statsized leaves it nil.
	Middleware func(http.Handler) http.Handler
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.Addr == "" {
		c.Addr = ":8790"
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.IdleTimeout < 0 {
		c.IdleTimeout = 0 // disabled
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.QuerySlots <= 0 {
		c.QuerySlots = 64
	}
	if c.HeavySlots <= 0 {
		c.HeavySlots = 8
	}
	if c.QueryQueue <= 0 {
		c.QueryQueue = 256
	}
	if c.HeavyQueue <= 0 {
		c.HeavyQueue = 16
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 500 * time.Millisecond
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxDeadline < 0 {
		c.MaxDeadline = 0 // disabled
	}
	if c.RunLinger <= 0 {
		c.RunLinger = 10 * time.Second
	}
	return c
}

// Server is the statsized daemon: an Engine, a session pool, and the
// HTTP surface over them. Construct with New, serve with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	eng     *statsize.Engine
	cfg     Config
	mgr     *Manager
	handler http.Handler
	httpSrv *http.Server
	started time.Time
	clock   func() time.Time

	// optimize runs a detached optimize run's named optimizer on its
	// session: eng.OptimizeSession, except in a test that sets a
	// failing function to exercise a run's error exit.
	optimize func(ctx context.Context, s *statsize.Session, optimizer string, opts ...statsize.RunOption) (*statsize.Result, error)

	// streamCtx bounds every SSE optimize run; Shutdown cancels it so
	// streams terminate promptly while ordinary requests drain.
	streamCtx     context.Context
	cancelStreams context.CancelFunc

	// adm is the load shedder; runs tracks detached optimize runs and
	// runWG counts their goroutines so Shutdown can wait for leases
	// and admission slots to come home.
	adm   *admission
	runs  *runRegistry
	runWG sync.WaitGroup

	janitorStop  chan struct{}
	janitorDone  chan struct{}
	shutdownOnce sync.Once
}

// New builds a daemon over eng.
func New(eng *statsize.Engine, cfg Config) *Server {
	cfg = cfg.normalize()
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		mgr:      NewManager(eng, cfg),
		started:  time.Now(),
		clock:    time.Now,
		optimize: eng.OptimizeSession,
	}
	s.streamCtx, s.cancelStreams = context.WithCancel(context.Background())
	s.adm = newAdmission(cfg, func() bool {
		select {
		case <-s.streamCtx.Done():
			return true
		default:
			return false
		}
	})
	s.runs = newRunRegistry()
	s.handler = recoverMiddleware(s.routes())
	if cfg.Middleware != nil {
		s.handler = cfg.Middleware(s.handler)
	}
	s.httpSrv = &http.Server{
		Handler: s.handler,
		// No WriteTimeout: optimize streams are legitimately long-lived.
		// Header reads stay bounded so idle half-open connections cannot
		// pin the drain.
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.janitorStop = make(chan struct{})
	s.janitorDone = make(chan struct{})
	go s.janitor()
	return s
}

// Handler exposes the daemon's HTTP surface (tests mount it on
// httptest servers).
func (s *Server) Handler() http.Handler { return s.handler }

// Manager exposes the session pool (tests drive Sweep directly).
func (s *Server) Manager() *Manager { return s.mgr }

// janitor periodically sweeps the session pool until shutdown.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := s.mgr.Sweep(); n > 0 {
				s.cfg.Logf("statsized: evicted %d idle session(s)", n)
			}
		case <-s.janitorStop:
			return
		}
	}
}

// Serve accepts connections on l until Shutdown. It returns the error
// from the underlying http.Server; after a clean Shutdown that is
// http.ErrServerClosed, which Serve maps to nil.
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on cfg.Addr and serves. The ready callback,
// when non-nil, runs with the bound address before accepting — the
// daemon main uses it to publish the resolved port (":0" listens).
func (s *Server) ListenAndServe(ready func(addr net.Addr)) error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("statsized: listen %s: %w", s.cfg.Addr, err)
	}
	if ready != nil {
		ready(l.Addr())
	}
	return s.Serve(l)
}

// Shutdown stops the daemon gracefully: the janitor stops, optimize
// streams are canceled (their sessions observe the cancellation within
// one unit of work and the streams emit their terminal done event),
// and in-flight requests — what-if batches in particular — drain
// within cfg.DrainTimeout. Requests still running at the deadline are
// cut off by closing the listener hard. Pooled sessions close once
// the traffic is gone. Safe to call once; ctx bounds the whole wait on
// top of DrainTimeout.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutdownOnce.Do(func() {
		close(s.janitorStop)
		s.cancelStreams()

		drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
		err = s.httpSrv.Shutdown(drainCtx)
		if err != nil {
			// Drain deadline exceeded: sever the remaining connections.
			closeErr := s.httpSrv.Close()
			err = errors.Join(fmt.Errorf("statsized: drain incomplete: %w", err), closeErr)
		}
		// Detached optimize runs outlive their HTTP requests; their
		// contexts are canceled above, so they finish within one unit
		// of optimizer work and give their leases back.
		runsDone := make(chan struct{})
		go func() { s.runWG.Wait(); close(runsDone) }()
		select {
		case <-runsDone:
		case <-drainCtx.Done():
			err = errors.Join(err, fmt.Errorf("statsized: optimize runs still draining at deadline"))
		}
		s.mgr.CloseAll()
		<-s.janitorDone
	})
	return err
}
