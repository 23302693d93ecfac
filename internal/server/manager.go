package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"statsize"
	"statsize/internal/par"
)

// Pool errors the handlers translate to HTTP statuses.
var (
	// ErrNoSession marks a handle the pool does not hold: never opened,
	// or already evicted or closed (404).
	ErrNoSession = errors.New("server: no such session")
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

// entry is one pooled session and the metadata its responses report,
// all set by build and fixed from then on. The session serializes its
// own calls; the entry's lease count and last use live in the pool.
type entry struct {
	id       string
	key      poolKey
	sess     *statsize.Session
	numGates int
	dt       float64
	objName  string
	obj      statsize.Objective // nil = engine default; passed to optimizer runs
	created  time.Time
}

// pool is the Manager's mutable state, reachable only through
// Manager.pool.Do; callbacks that cannot fail return nil, and their
// callers drop it. An entry is live while byID holds it. A doomed entry
// has left both maps; refs and lastUsed keep it until its last lease
// returns, and then its session closes.
type pool struct {
	byID     map[string]*entry
	byKey    map[poolKey]*entry
	refs     map[*entry]int       // in-flight leases; eviction requires 0
	lastUsed map[*entry]time.Time // stamped on every open, lease and release
	stats    ManagerStats         // Stats fills in Live and InFlight
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
	_ = l.m.pool.Do(func(p *pool) error { p.lease(l.e, l.m.now()); return nil })
	return &Lease{m: l.m, e: l.e}
}

// release returns the lease. If the entry was doomed while leased
// (explicit DELETE during an in-flight request), the last release
// closes the underlying session.
func (l *Lease) release() {
	var closeNow bool
	_ = l.m.pool.Do(func(p *pool) error {
		p.refs[l.e]--
		p.lastUsed[l.e] = l.m.now()
		closeNow = p.byID[l.e.id] != l.e && p.drained(l.e)
		return nil
	})
	if closeNow {
		l.e.sess.Close()
	}
}

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
	eng  *statsize.Engine
	cfg  Config
	now  func() time.Time // injectable clock for eviction tests
	seq  atomic.Int64     // session ids issued, one per build
	pool par.Locked[pool]
}

// NewManager builds a pool over eng. cfg must already be normalized
// (Server.New does it).
func NewManager(eng *statsize.Engine, cfg Config) *Manager {
	m := &Manager{eng: eng, cfg: cfg, now: time.Now}
	_ = m.pool.Do(func(p *pool) error {
		*p = pool{byID: map[string]*entry{}, byKey: map[poolKey]*entry{},
			refs: map[*entry]int{}, lastUsed: map[*entry]time.Time{}}
		return nil
	})
	return m
}

// OpenOrAttach returns the handle of the pooled session for (design,
// client), creating the session on first use; work on it goes through
// Do. The bins/objective knobs apply only at creation; attaching to a
// pooled session returns its existing grid and objective (Created=false
// tells the client which happened).
func (m *Manager) OpenOrAttach(ctx context.Context, req *OpenSessionRequest) (*OpenSessionResponse, error) {
	key := poolKey{design: req.Design, client: req.Client}
	var got *entry // the pooled entry the response names
	_ = m.pool.Do(func(p *pool) error { got = p.attach(key, m.now()); return nil })
	if got != nil {
		return openResponse(got, false), nil
	}

	// Build outside the lock: elaboration plus the opening SSTA pass is
	// the expensive part and must not serialize the whole pool. Two
	// racing first-opens may both build; the loser's session is closed.
	e, err := m.build(ctx, req, key)
	if err != nil {
		return nil, err
	}
	err = m.pool.Do(func(p *pool) error {
		if got = p.attach(key, m.now()); got != nil {
			return nil
		}
		if len(p.byID) >= m.cfg.MaxSessions && !p.evictOne() {
			// Every slot is leased by an in-flight request; slots free
			// as soon as any of them finishes, so the honest hint is
			// "shortly" — one second, the Retry-After floor.
			return &retryAfterError{err: ErrPoolFull, after: time.Second}
		}
		got, p.byID[e.id], p.byKey[key], p.lastUsed[e] = e, e, e, e.created
		p.stats.Opened++
		return nil
	})
	if got != e {
		e.sess.Close() // lost the race, or no room: discard our build
	}
	if err != nil {
		return nil, err
	}
	return openResponse(got, got == e), nil
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
	numGates, errG := sess.NumGates()
	dt, errDT := sess.DT()
	objName, errObj := sess.ObjectiveName()
	if err := errors.Join(errG, errDT, errObj); err != nil {
		sess.Close()
		return nil, err
	}
	return &entry{
		id:       fmt.Sprintf("s%06d-%s", m.seq.Add(1), sanitizeID(req.Design)),
		key:      key,
		sess:     sess,
		numGates: numGates,
		dt:       dt,
		objName:  objName,
		obj:      obj,
		created:  m.now(),
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
	var e *entry
	err := m.pool.Do(func(p *pool) error {
		if e = p.byID[id]; e == nil {
			return ErrNoSession
		}
		p.lease(e, m.now())
		return nil
	})
	if err != nil {
		return err
	}
	lease := &Lease{m: m, e: e}
	defer lease.release()
	return f(lease)
}

// Close dooms the session behind id: it leaves the pool immediately
// (later calls on id fail with ErrNoSession) and the underlying session
// closes as soon as no lease holds it.
func (m *Manager) Close(id string) error {
	var (
		e        *entry
		closeNow bool
	)
	err := m.pool.Do(func(p *pool) error {
		if e = p.byID[id]; e == nil {
			return ErrNoSession
		}
		p.stats.ClosedExplicit++
		closeNow = p.doom(e)
		return nil
	})
	if closeNow {
		e.sess.Close()
	}
	return err
}

// Sweep reclaims every unleased session idle for at least the
// configured budget, then (still over-cap) the least-recently-used
// unleased sessions until the pool fits. Returns how many sessions it
// closed. The janitor calls this periodically; tests call it directly.
func (m *Manager) Sweep() int {
	now := m.now()
	var idle []*entry
	_ = m.pool.Do(func(p *pool) error {
		for _, e := range p.byID {
			if p.refs[e] == 0 && m.cfg.IdleTimeout > 0 && now.Sub(p.lastUsed[e]) >= m.cfg.IdleTimeout {
				p.doom(e)
				p.stats.EvictedIdle++
				idle = append(idle, e)
			}
		}
		for len(p.byID) > m.cfg.MaxSessions {
			if !p.evictOne() {
				break
			}
		}
		return nil
	})
	for _, e := range idle {
		e.sess.Close()
	}
	return len(idle)
}

// CloseAll dooms and closes every unleased session; leased ones close
// on their final release. Used at shutdown, after the HTTP server has
// drained.
func (m *Manager) CloseAll() {
	var idle []*entry
	_ = m.pool.Do(func(p *pool) error {
		for _, e := range p.byID {
			if p.doom(e) {
				idle = append(idle, e)
			}
		}
		return nil
	})
	for _, e := range idle {
		e.sess.Close()
	}
}

// Info returns the manager-level metadata for id without touching the
// session lock.
func (m *Manager) Info(id string) (*SessionInfoResponse, error) {
	var info *SessionInfoResponse
	err := m.pool.Do(func(p *pool) error {
		e := p.byID[id]
		if e == nil {
			return ErrNoSession
		}
		now := m.now()
		info = &SessionInfoResponse{
			SessionID: e.id,
			Design:    e.key.design,
			Client:    e.key.client,
			NumGates:  e.numGates,
			Objective: e.objName,
			DT:        e.dt,
			IdleS:     now.Sub(p.lastUsed[e]).Seconds(),
			InFlight:  p.refs[e],
			AgeS:      now.Sub(e.created).Seconds(),
		}
		return nil
	})
	return info, err
}

// Stats snapshots the pool accounting.
func (m *Manager) Stats() ManagerStats {
	var st ManagerStats
	_ = m.pool.Do(func(p *pool) error {
		st = p.stats
		st.Live = len(p.byID)
		for _, n := range p.refs {
			st.InFlight += n
		}
		return nil
	})
	return st
}

// lease pins e and stamps its use.
func (p *pool) lease(e *entry, now time.Time) {
	p.refs[e]++
	p.lastUsed[e] = now
}

// attach stamps and returns the live entry for key, nil when there is
// none.
func (p *pool) attach(key poolKey, now time.Time) *entry {
	e := p.byKey[key]
	if e != nil {
		p.lastUsed[e] = now
		p.stats.Attached++
	}
	return e
}

// doom removes e from the pool and reports whether its session may
// close now; otherwise the release of its last lease closes it.
func (p *pool) doom(e *entry) bool {
	delete(p.byID, e.id)
	delete(p.byKey, e.key)
	return p.drained(e)
}

// drained reports whether no lease holds the doomed entry e, and then
// drops its accounting; the caller closes its session.
func (p *pool) drained(e *entry) bool {
	if p.refs[e] > 0 {
		return false
	}
	delete(p.refs, e)
	delete(p.lastUsed, e)
	return true
}

// evictOne dooms and closes the least-recently-used unleased entry,
// reporting whether one existed. The close happens inline: an unleased
// entry has no server request inside its session, so Close cannot
// block on a long-held session lock.
func (p *pool) evictOne() bool {
	var victim *entry
	for _, e := range p.byID {
		if p.refs[e] == 0 && (victim == nil || p.lastUsed[e].Before(p.lastUsed[victim])) {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	p.doom(victim)
	p.stats.EvictedCap++
	victim.sess.Close()
	return true
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
