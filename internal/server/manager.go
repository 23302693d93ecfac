package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"statsize"
)

// Pool errors the handlers translate to HTTP statuses.
var (
	// ErrNoSession marks a handle that never existed (404).
	ErrNoSession = errors.New("server: no such session")
	// ErrSessionGone marks a handle whose session was evicted or closed;
	// the client should reopen (410).
	ErrSessionGone = errors.New("server: session evicted")
	// ErrPoolFull marks a full session table with nothing evictable (503).
	ErrPoolFull = errors.New("server: session pool full")
)

// poolKey identifies one pooled session: the service keeps at most one
// live Session per (design, client) pair, so a client's repeated opens
// attach to its existing incremental state instead of paying a fresh
// SSTA pass.
type poolKey struct {
	design string
	client string
}

// entry is one pooled session plus its lease accounting. The session
// itself serializes its own calls; refs/lastUsed/doomed carry the
// machine-readable foreign-guard annotation statlint's lockdiscipline
// analyzer enforces: exported functions touching them must hold the
// Manager's mutex.
type entry struct {
	id       string
	key      poolKey
	sess     *statsize.Session
	numGates int
	dt       float64
	objName  string
	obj      statsize.Objective // nil = engine default; passed to optimizer runs
	created  time.Time

	refs     int       // in-flight leases; eviction requires 0 (guarded by Manager.mu)
	lastUsed time.Time // updated on every open, lease and release (guarded by Manager.mu)
	doomed   bool      // close fires when refs drain to 0 (guarded by Manager.mu)
}

// Lease pins one session for the duration of one Manager.Do callback:
// the manager will not evict a leased entry, so a handler can use the
// session without racing the idle sweeper. Do releases it when the
// callback returns; retain is the one way to keep a pin past that.
type Lease struct {
	m *Manager
	e *entry
}

// Session returns the leased session.
func (l *Lease) Session() *statsize.Session { return l.e.sess }

// Entry metadata accessors (immutable after construction).
func (l *Lease) ID() string                    { return l.e.id }
func (l *Lease) Design() string                { return l.e.key.design }
func (l *Lease) NumGates() int                 { return l.e.numGates }
func (l *Lease) ObjectiveName() string         { return l.e.objName }
func (l *Lease) Objective() statsize.Objective { return l.e.obj }

// retain takes one more pin on the leased entry, for a holder that
// outlives the Do callback (the detached optimize run). The holder
// must release it exactly once.
func (l *Lease) retain() *Lease {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	return l.m.leaseLocked(l.e)
}

// release returns the lease. If the entry was doomed while leased
// (explicit DELETE during an in-flight request), the last release
// closes the underlying session.
func (l *Lease) release() { l.m.release(l.e) }

// ManagerStats is the pool accounting surfaced by /stats.
type ManagerStats struct {
	Live           int   `json:"live"`            // pooled sessions right now
	InFlight       int   `json:"in_flight"`       // leases currently held
	Opened         int64 `json:"opened"`          // sessions ever created by the pool
	Attached       int64 `json:"attached"`        // opens served from the pool
	EvictedIdle    int64 `json:"evicted_idle"`    // reclaimed past the idle budget
	EvictedCap     int64 `json:"evicted_cap"`     // reclaimed to respect max_sessions
	ClosedExplicit int64 `json:"closed_explicit"` // DELETE /v1/sessions/{id}
}

// Manager pools live Sessions per (design, client) with lease-based
// handles and reclaims them under two budgets: an idle timeout and a
// live-session cap (the daemon's memory budget proxy — each session
// holds a full analysis). Eviction never touches a session with a
// lease outstanding, which is the evict-vs-query exclusion the race
// tests hammer.
type Manager struct {
	eng *statsize.Engine
	cfg Config
	now func() time.Time // injectable clock for eviction tests

	mu       sync.Mutex
	byID     map[string]*entry
	byKey    map[poolKey]*entry
	seq      int64
	inFlight int
	stats    ManagerStats
}

// NewManager builds a pool over eng. cfg must already be normalized
// (Server.New does it).
func NewManager(eng *statsize.Engine, cfg Config) *Manager {
	return &Manager{
		eng:   eng,
		cfg:   cfg,
		now:   time.Now,
		byID:  make(map[string]*entry),
		byKey: make(map[poolKey]*entry),
	}
}

// OpenOrAttach returns the handle of the pooled session for (design,
// client), creating the session on first use; work on it goes through
// Do. The bins/objective knobs apply only at creation; attaching to a
// pooled session returns its existing grid and objective (Created=false
// tells the client which happened).
func (m *Manager) OpenOrAttach(ctx context.Context, req *OpenSessionRequest) (*OpenSessionResponse, error) {
	key := poolKey{design: req.Design, client: req.Client}
	m.mu.Lock()
	if e, ok := m.byKey[key]; ok {
		e.lastUsed = m.now()
		m.stats.Attached++
		m.mu.Unlock()
		return openResponse(e, false), nil
	}
	m.mu.Unlock()

	// Build outside the lock: elaboration plus the opening SSTA pass is
	// the expensive part and must not serialize the whole pool. Two
	// racing first-opens may both build; the loser's session is closed.
	e, err := m.build(ctx, req, key)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if prior, ok := m.byKey[key]; ok {
		prior.lastUsed = m.now()
		m.stats.Attached++
		m.mu.Unlock()
		e.sess.Close() // lost the race; discard our build
		return openResponse(prior, false), nil
	}
	if len(m.byID) >= m.cfg.MaxSessions && !m.evictOneLocked() {
		m.mu.Unlock()
		e.sess.Close()
		// Every slot is leased by an in-flight request; slots free as
		// soon as any of them finishes, so the honest hint is "shortly"
		// — one second, the Retry-After floor.
		return nil, &retryAfterError{err: ErrPoolFull, after: time.Second}
	}
	m.seq++
	e.id = fmt.Sprintf("s%06d-%s", m.seq, sanitizeID(req.Design))
	m.byID[e.id] = e
	m.byKey[key] = e
	m.stats.Opened++
	m.mu.Unlock()
	return openResponse(e, true), nil
}

// build elaborates the design and opens its session (no pool locks
// held).
func (m *Manager) build(ctx context.Context, req *OpenSessionRequest, key poolKey) (*entry, error) {
	var (
		d   *statsize.Design
		err error
	)
	if req.Bench != "" {
		d, err = m.eng.LoadBench(strings.NewReader(req.Bench), req.Design)
	} else {
		d, err = m.eng.Benchmark(req.Design)
	}
	if err != nil {
		return nil, &apiError{Status: http.StatusBadRequest, Code: "bad_design", Message: err.Error()}
	}
	obj, apiErr := parseObjective(req.Objective)
	if apiErr != nil {
		return nil, apiErr
	}
	var opts []statsize.RunOption
	if req.Bins > 0 || obj != nil {
		opts = append(opts, statsize.WithConfig(statsize.Config{Bins: req.Bins, Objective: obj}))
	}
	sess, err := m.eng.Open(ctx, d, opts...)
	if err != nil {
		return nil, fmt.Errorf("server: opening session: %w", err)
	}
	numGates, err := sess.NumGates()
	if err != nil {
		sess.Close()
		return nil, err
	}
	dt, err := sess.DT()
	if err != nil {
		sess.Close()
		return nil, err
	}
	objName, err := sess.ObjectiveName()
	if err != nil {
		sess.Close()
		return nil, err
	}
	now := m.now()
	return &entry{
		key:      key,
		sess:     sess,
		numGates: numGates,
		dt:       dt,
		objName:  objName,
		obj:      obj,
		created:  now,
		lastUsed: now,
	}, nil
}

func openResponse(e *entry, created bool) *OpenSessionResponse {
	return &OpenSessionResponse{
		SessionID: e.id,
		Created:   created,
		Design:    e.key.design,
		NumGates:  e.numGates,
		Objective: e.objName,
		DT:        e.dt,
	}
}

// Do leases the session behind id for the duration of f: the manager
// neither evicts it nor, if a DELETE arrives meanwhile, closes it until
// f returns or panics, and the lease is released on every exit. The
// lease must not be used after f returns. An id the pool does not hold
// (never opened, or already evicted or deleted) yields ErrNoSession
// without calling f; otherwise Do returns f's error.
func (m *Manager) Do(id string, f func(*Lease) error) error {
	lease, err := m.acquire(id)
	if err != nil {
		return err
	}
	defer lease.release()
	return f(lease)
}

// acquire leases the session behind id; Do is its one caller.
func (m *Manager) acquire(id string) (*Lease, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.byID[id]
	if !ok {
		return nil, ErrNoSession
	}
	if e.doomed {
		return nil, ErrSessionGone
	}
	return m.leaseLocked(e), nil
}

// leaseLocked pins e; the caller holds m.mu.
func (m *Manager) leaseLocked(e *entry) *Lease {
	e.refs++
	e.lastUsed = m.now()
	m.inFlight++
	return &Lease{m: m, e: e}
}

// release unpins e and closes it if a DELETE doomed it while leased.
func (m *Manager) release(e *entry) {
	m.mu.Lock()
	e.refs--
	e.lastUsed = m.now()
	m.inFlight--
	closeNow := e.doomed && e.refs == 0
	m.mu.Unlock()
	if closeNow {
		e.sess.Close()
	}
}

// Close dooms the session behind id: it leaves the pool immediately
// (new acquires fail with ErrSessionGone) and the underlying session
// closes as soon as no lease holds it.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	e, ok := m.byID[id]
	if !ok || e.doomed {
		m.mu.Unlock()
		if ok {
			return ErrSessionGone
		}
		return ErrNoSession
	}
	m.doomLocked(e)
	m.stats.ClosedExplicit++
	closeNow := e.refs == 0
	m.mu.Unlock()
	if closeNow {
		e.sess.Close()
	}
	return nil
}

// doomLocked removes e from the pool maps; the caller holds m.mu and
// is responsible for closing the session once refs reach zero.
func (m *Manager) doomLocked(e *entry) {
	e.doomed = true
	delete(m.byID, e.id)
	delete(m.byKey, e.key)
}

// Sweep reclaims every unleased session idle for at least the
// configured budget, then (still over-cap) the least-recently-used
// unleased sessions until the pool fits. Returns how many sessions it
// closed. The janitor calls this periodically; tests call it directly.
func (m *Manager) Sweep() int {
	now := m.now()
	var doomed []*entry
	m.mu.Lock()
	for _, e := range m.byID {
		if e.refs == 0 && m.cfg.IdleTimeout > 0 && now.Sub(e.lastUsed) >= m.cfg.IdleTimeout {
			m.doomLocked(e)
			m.stats.EvictedIdle++
			doomed = append(doomed, e)
		}
	}
	for len(m.byID) > m.cfg.MaxSessions {
		if !m.evictOneLocked() {
			break
		}
	}
	m.mu.Unlock()
	for _, e := range doomed {
		e.sess.Close()
	}
	return len(doomed)
}

// evictOneLocked dooms and closes the least-recently-used unleased
// entry, reporting whether one existed. The caller holds m.mu. The
// close itself happens inline: refs==0 means no server request is
// inside the session, so Close cannot block on a long-held session
// lock.
func (m *Manager) evictOneLocked() bool {
	var victim *entry
	for _, e := range m.byID {
		if e.refs != 0 {
			continue
		}
		if victim == nil || e.lastUsed.Before(victim.lastUsed) {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	m.doomLocked(victim)
	m.stats.EvictedCap++
	victim.sess.Close()
	return true
}

// Info returns the manager-level metadata for id without touching the
// session lock.
func (m *Manager) Info(id string) (*SessionInfoResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.byID[id]
	if !ok {
		return nil, ErrNoSession
	}
	now := m.now()
	return &SessionInfoResponse{
		SessionID: e.id,
		Design:    e.key.design,
		Client:    e.key.client,
		NumGates:  e.numGates,
		Objective: e.objName,
		DT:        e.dt,
		IdleS:     now.Sub(e.lastUsed).Seconds(),
		InFlight:  e.refs,
		AgeS:      now.Sub(e.created).Seconds(),
	}, nil
}

// Stats snapshots the pool accounting.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Live = len(m.byID)
	st.InFlight = m.inFlight
	return st
}

// CloseAll dooms and closes every unleased session; leased ones close
// on their final release. Used at shutdown, after the HTTP server has
// drained.
func (m *Manager) CloseAll() {
	var doomed []*entry
	m.mu.Lock()
	for _, e := range m.byID {
		m.doomLocked(e)
		if e.refs == 0 {
			doomed = append(doomed, e)
		}
	}
	m.mu.Unlock()
	for _, e := range doomed {
		e.sess.Close()
	}
}

// sanitizeID keeps session ids readable: design names become a short
// [a-z0-9-] suffix.
func sanitizeID(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteRune('-')
		}
		if b.Len() >= 24 {
			break
		}
	}
	if b.Len() == 0 {
		return "design"
	}
	return b.String()
}
