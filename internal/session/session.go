// Package session implements the stateful incremental-timing abstraction
// the public API is built around: a Session owns one design together
// with a live SSTA analysis and keeps the two consistent across queries
// and mutations.
//
// The paper's contribution is *incremental* statistical timing — bounded
// perturbation fronts that avoid a full SSTA re-propagation per
// candidate move. A Session is that machinery promoted to a first-class
// object:
//
//   - Queries: sink distribution, percentiles, per-gate arrival, and the
//     backward required-time pass that makes statistical slack and gate
//     criticality O(1) lookups.
//   - Mutations: Resize commits a width change through the incremental
//     recompute (reporting how many nodes were touched versus a full
//     pass), WhatIf measures the exact objective sensitivity of a
//     candidate resize via perturbation propagation without committing
//     anything — WhatIfBatch fans a whole candidate set out across the
//     session's worker pool under one lock acquisition, which the
//     mutation-free evaluation contract (see DESIGN.md) makes safe —
//     and Checkpoint/Rollback give transactional sizing.
//   - Optimizers: the sizing strategies in package core drive a Session
//     instead of owning their own analysis loop, so every strategy gets
//     incremental commits, cancellation and stats accounting for free.
//
// Every exported Session method locks the session; concurrent calls from
// multiple goroutines serialize. Multi-step operations (an optimizer
// run, a query-then-resize decision that must not interleave) run as
// one Session.Do callback and work through the Tx it is handed; Do
// unlocks on every exit, so no caller can leave the session held.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/netlist"
	"statsize/internal/par"
	"statsize/internal/ssta"
)

// ErrClosed is returned by every operation on a closed session.
var ErrClosed = errors.New("session: use of closed session")

// ErrNoCheckpoint is returned by Rollback when no checkpoint is pending.
var ErrNoCheckpoint = errors.New("session: rollback without a matching checkpoint")

// Objective maps the sink distribution to the scalar being minimized.
// It is structurally identical to core.Objective (core aliases this
// type), so any objective accepted by the optimizers configures a
// session too.
type Objective interface {
	Eval(sink *dist.Dist) float64
	String() string
}

// Session binds a design to a live incremental SSTA analysis. Open one
// with Open (or Engine.Open at the facade, which hands it a private
// clone), query and mutate it freely, and Close it when done.
type Session struct {
	mu sync.Mutex
	tx Tx

	d      *design.Design
	a      *ssta.Analysis
	obj    Objective
	closed bool

	// scratch is the session's one evaluation working set, one Scratch
	// (kernel arena plus dense overlays) per worker. What-ifs, batches,
	// resize commits, required-time passes and optimizer sweeps all
	// compute through it, so a warm session allocates only what escapes
	// (persisted sinks and committed arrivals). Guarded by mu like
	// everything else; worker w of a parallel sweep touches only
	// scratch[w], and the serial paths use scratch[0].
	scratch []*ssta.Scratch

	// deadline overrides the slack reference; when unset the current
	// objective value of the sink distribution is used.
	deadline    float64
	hasDeadline bool

	marks []mark
	stats Stats // written only through record

	// rollup, when non-nil, is the engine-wide Counters this session
	// reports into from Open to Close (see record).
	rollup *Counters
}

// mark is one checkpoint: paired design and analysis snapshots plus the
// deadline setting the cached required-time pass was computed against.
type mark struct {
	d           *design.State
	a           *ssta.State
	deadline    float64
	hasDeadline bool
}

// Stats is the session's cumulative accounting. TotalNodes is the
// number of arrival computations one full SSTA pass performs, the
// yardstick the incremental counters are measured against.
type Stats struct {
	Resizes            int // committed Resize calls
	NodesRecomputed    int // arrival recomputations across all resizes
	LastResizeNodes    int // arrival recomputations of the latest resize
	WhatIfs            int // what-if evaluations served
	WhatIfNodesVisited int // arrival computations across all what-ifs
	RequiredPasses     int // backward required-time passes run
	Checkpoints        int // checkpoints taken
	Rollbacks          int // rollbacks applied
	TotalNodes         int // arrival computations of one full pass
}

// ResizeStats describes one committed resize.
type ResizeStats struct {
	Gate            netlist.GateID
	OldWidth        float64
	NewWidth        float64 // after library clamping
	NodesRecomputed int     // arrival recomputations this commit
	FullPassNodes   int     // what a full SSTA pass would have computed
	Objective       float64 // session objective after the commit
}

// Candidate names one hypothetical resize for WhatIfBatch: gate g at
// width w (clamped to the library range during evaluation, like every
// width the session accepts).
type Candidate struct {
	Gate  netlist.GateID
	Width float64
}

// WhatIfResult describes one uncommitted candidate evaluation.
type WhatIfResult struct {
	Gate         netlist.GateID
	Width        float64 // evaluated width, after library clamping
	Objective    float64 // objective if the resize were committed
	Delta        float64 // current objective minus Objective (improvement)
	Sensitivity  float64 // Delta per unit of width change
	NodesVisited int     // arrival computations the perturbation cost
}

// Open runs the initial full SSTA pass over d on grid dt and returns a
// session owning d. The caller must not touch d afterwards except
// through the session. workers bounds the session's parallel evaluation
// paths and is fixed here: the opening SSTA pass, WhatIfBatch and the
// optimizer sweeps run over the session fan out across up to that many
// goroutines, one Scratch each; non-positive means one worker per
// logical CPU, 1 forces fully serial evaluation. The worker count never
// changes results: every parallel path is bit-identical to its serial
// reference. rollup, when non-nil, is the engine-wide Counters
// the session reports its open, its operations and its Close into;
// nil leaves the session unbound, accounting only in its own Stats.
func Open(ctx context.Context, d *design.Design, dt float64, obj Objective, workers int, rollup *Counters) (*Session, error) {
	if obj == nil {
		return nil, fmt.Errorf("session: nil objective")
	}
	workers = par.Workers(workers)
	a, err := ssta.AnalyzeParallel(ctx, d, dt, workers)
	if err != nil {
		return nil, err
	}
	s := &Session{
		d: d, a: a, obj: obj, rollup: rollup,
		stats: Stats{TotalNodes: d.E.G.NumNodes() - 1}, // every node but the source
	}
	s.scratch = make([]*ssta.Scratch, workers)
	for i := range s.scratch {
		s.scratch[i] = ssta.NewScratch()
	}
	s.tx.s = s
	s.record(opOpen, 1, 0)
	return s, nil
}

// Close marks the session unusable. Further calls (including a second
// Close) return ErrClosed. The design last committed remains valid in
// any Result that references it.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	s.marks = nil
	s.record(opClose, 1, 0)
	return nil
}

// Do locks the session, runs f on the transaction view and unlocks when
// f returns or panics, so no exit leaves the session held. Every other
// session call blocks meanwhile: f must work through the Tx, must not
// call the session's own methods (they would deadlock), and must not
// retain the Tx after it returns. A closed session returns ErrClosed
// without calling f; otherwise Do returns f's error.
func (s *Session) Do(f func(*Tx) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return f(&s.tx)
}

// Acquire locks the session and returns the transaction view, which
// Tx.Release unlocks. It stays exported only for the perfbench module's
// analysis probe, which builds against this API; nothing in this module
// calls it.
//
// Deprecated: use Session.Do, which releases the lock on every exit.
func (s *Session) Acquire() (*Tx, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	return &s.tx, nil
}

// --- single-call convenience wrappers (one Do each) ---

// Resize commits gate g at width w through the incremental recompute.
func (s *Session) Resize(ctx context.Context, g netlist.GateID, w float64) (ResizeStats, error) {
	var st ResizeStats
	err := s.Do(func(tx *Tx) (err error) {
		st, err = tx.Resize(ctx, g, w)
		return err
	})
	return st, err
}

// WhatIf evaluates resizing gate g to width w without committing.
func (s *Session) WhatIf(ctx context.Context, g netlist.GateID, w float64) (WhatIfResult, error) {
	var res WhatIfResult
	err := s.Do(func(tx *Tx) (err error) {
		res, err = tx.WhatIf(ctx, g, w)
		return err
	})
	return res, err
}

// WhatIfBatch evaluates every candidate resize without committing any
// of them. The session lock is taken once for the whole batch; the
// candidates are then evaluated concurrently against the read-only base
// analysis on the session's worker pool. Results arrive in candidate
// order and are bit-identical to issuing the same WhatIf calls one by
// one.
func (s *Session) WhatIfBatch(ctx context.Context, candidates []Candidate) ([]WhatIfResult, error) {
	var res []WhatIfResult
	err := s.Do(func(tx *Tx) (err error) {
		res, err = tx.WhatIfBatch(ctx, candidates)
		return err
	})
	return res, err
}

// Checkpoint pushes a restore point and returns the checkpoint depth
// after the push.
func (s *Session) Checkpoint() (int, error) {
	var depth int
	err := s.Do(func(tx *Tx) error {
		depth = tx.Checkpoint()
		return nil
	})
	return depth, err
}

// Rollback pops the most recent checkpoint and restores the session to
// it. Without a pending checkpoint it fails with ErrNoCheckpoint.
func (s *Session) Rollback() error {
	return s.Do(func(tx *Tx) error { return tx.Rollback() })
}

// CheckpointDepth returns the number of pending checkpoints.
func (s *Session) CheckpointDepth() (int, error) {
	var depth int
	err := s.Do(func(tx *Tx) error {
		depth = tx.CheckpointDepth()
		return nil
	})
	return depth, err
}

// SinkDist returns the circuit-delay distribution at the current widths.
func (s *Session) SinkDist() (*dist.Dist, error) {
	var sink *dist.Dist
	err := s.Do(func(*Tx) error {
		sink = s.a.SinkDist()
		return nil
	})
	return sink, err
}

// Percentile returns the p-quantile of the circuit-delay distribution.
func (s *Session) Percentile(p float64) (float64, error) {
	var v float64
	err := s.Do(func(*Tx) error {
		v = s.a.Percentile(p)
		return nil
	})
	return v, err
}

// Objective returns the session objective evaluated on the current sink
// distribution.
func (s *Session) Objective() (float64, error) {
	var v float64
	err := s.Do(func(tx *Tx) error {
		v = tx.Objective()
		return nil
	})
	return v, err
}

// ObjectiveName describes the session objective (e.g. "p99").
func (s *Session) ObjectiveName() (string, error) {
	var name string
	err := s.Do(func(*Tx) error {
		name = s.obj.String()
		return nil
	})
	return name, err
}

// Arrival returns the arrival-time distribution at gate g's output.
func (s *Session) Arrival(g netlist.GateID) (*dist.Dist, error) {
	var arr *dist.Dist
	err := s.Do(func(*Tx) error {
		if err := s.checkGate(g); err != nil {
			return err
		}
		arr = s.a.Arrival(s.d.E.NodeOf[s.d.NL.Gate(g).Out])
		return nil
	})
	return arr, err
}

// Required returns the required-time distribution at gate g's output,
// running the backward pass first if no current one is cached.
func (s *Session) Required(ctx context.Context, g netlist.GateID) (*dist.Dist, error) {
	var req *dist.Dist
	err := s.Do(func(tx *Tx) error {
		if err := s.checkGate(g); err != nil {
			return err
		}
		if err := tx.EnsureRequired(ctx); err != nil {
			return err
		}
		req = s.a.Required(s.d.E.NodeOf[s.d.NL.Gate(g).Out])
		return nil
	})
	return req, err
}

// Slack returns the statistical slack distribution at gate g's output:
// required minus arrival against the session deadline (by default the
// current objective value at the sink). Mass below zero is the
// probability the gate violates the deadline.
func (s *Session) Slack(ctx context.Context, g netlist.GateID) (*dist.Dist, error) {
	var sl *dist.Dist
	err := s.Do(func(tx *Tx) error {
		if err := s.checkGate(g); err != nil {
			return err
		}
		if err := tx.EnsureRequired(ctx); err != nil {
			return err
		}
		sl = s.a.Slack(s.d.E.NodeOf[s.d.NL.Gate(g).Out])
		return nil
	})
	return sl, err
}

// Criticality returns P(slack <= 0) at gate g's output — the SSTA-based
// gate criticality that package montecarlo otherwise estimates by
// sampling. Values near 1 mark gates on statistically critical paths.
func (s *Session) Criticality(ctx context.Context, g netlist.GateID) (float64, error) {
	sl, err := s.Slack(ctx, g)
	if err != nil {
		return 0, err
	}
	return sl.CDF(0), nil
}

// SetDeadline fixes the sink deadline the slack queries measure against
// and invalidates any cached required-time pass.
func (s *Session) SetDeadline(t float64) error {
	return s.Do(func(*Tx) error {
		s.deadline = t
		s.hasDeadline = true
		s.a.InvalidateRequired()
		return nil
	})
}

// Width returns gate g's current width.
func (s *Session) Width(g netlist.GateID) (float64, error) {
	var w float64
	err := s.Do(func(*Tx) error {
		if err := s.checkGate(g); err != nil {
			return err
		}
		w = s.d.Width(g)
		return nil
	})
	return w, err
}

// TotalWidth returns the sum of all gate widths (the paper's "total
// gate size").
func (s *Session) TotalWidth() (float64, error) {
	var w float64
	err := s.Do(func(*Tx) error {
		w = s.d.TotalWidth()
		return nil
	})
	return w, err
}

// NumGates returns the gate count of the underlying netlist. Like every
// other accessor it locks the session and fails on a closed one: the
// netlist itself is immutable, but an unlocked read would race with
// Rollback restoring the design in place, and a silent use-after-Close
// is a bug worth surfacing.
func (s *Session) NumGates() (int, error) {
	var n int
	err := s.Do(func(*Tx) error {
		n = s.d.NL.NumGates()
		return nil
	})
	return n, err
}

// DT returns the SSTA grid resolution the session was opened at.
func (s *Session) DT() (float64, error) {
	var dt float64
	err := s.Do(func(*Tx) error {
		dt = s.a.DT
		return nil
	})
	return dt, err
}

// Snapshot returns an independent clone of the current design, safe to
// use after the session closes or moves on.
func (s *Session) Snapshot() (*design.Design, error) {
	var d *design.Design
	err := s.Do(func(*Tx) error {
		d = s.d.Clone()
		return nil
	})
	return d, err
}

// Stats returns the cumulative session accounting.
func (s *Session) Stats() (Stats, error) {
	var st Stats
	err := s.Do(func(tx *Tx) error {
		st = tx.Stats()
		return nil
	})
	return st, err
}

// checkGate validates a gate ID against the netlist. Callers hold the
// lock.
func (s *Session) checkGate(g netlist.GateID) error {
	if g < 0 || int(g) >= s.d.NL.NumGates() {
		return fmt.Errorf("session: gate %d out of range [0,%d)", g, s.d.NL.NumGates())
	}
	return nil
}
