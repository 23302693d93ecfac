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
// A Session's state is a Tx value behind a par.Locked, reachable only
// through Session.Do: every exported method is one Do, and concurrent
// calls from multiple goroutines serialize. Multi-step operations (an
// optimizer run, a query-then-resize decision that must not interleave)
// run as one Session.Do callback and work through the Tx it is handed;
// Do unlocks on every exit, so no caller can leave the session held.
package session

import (
	"context"
	"errors"
	"fmt"
	"math"

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
// clone), query and mutate it freely, and Close it when done. Its whole
// state is the Tx value behind one par.Locked, so every read and write
// of it runs inside Do.
type Session struct {
	state par.Locked[Tx]
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
// width the session accepts; a NaN width fails the batch).
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
	scratch := make([]*ssta.Scratch, workers)
	for i := range scratch {
		scratch[i] = ssta.NewScratch()
	}
	s := new(Session)
	_ = s.state.Do(func(tx *Tx) error { // fills in the state; cannot fail
		*tx = Tx{
			d: d, a: a, obj: obj, scratch: scratch, rollup: rollup,
			stats: Stats{TotalNodes: d.E.G.NumNodes() - 1}, // every node but the source
		}
		tx.record(opOpen, 1, 0)
		return nil
	})
	return s, nil
}

// Close marks the session unusable. Further calls (including a second
// Close) return ErrClosed. The design last committed remains valid in
// any Result that references it.
func (s *Session) Close() error {
	return s.Do(func(tx *Tx) error {
		tx.closed = true
		tx.marks = nil
		tx.record(opClose, 1, 0)
		return nil
	})
}

// Do locks the session, runs f on the transaction view and unlocks when
// f returns or panics, so no exit leaves the session held. Every other
// session call blocks meanwhile: f must work through the Tx, must not
// call the session's own methods (they would deadlock), and must not
// retain the Tx after it returns. A closed session returns ErrClosed
// without calling f; otherwise Do returns f's error.
func (s *Session) Do(f func(*Tx) error) error {
	return s.state.Do(func(tx *Tx) error {
		if tx.closed {
			return ErrClosed
		}
		return f(tx)
	})
}

// Acquire holds the session and returns the transaction view, which
// Tx.Release lets go: a helper goroutine runs one Do whose callback
// waits for the release. It stays exported only for the perfbench
// module's analysis probe, which builds against this API; nothing in
// this module calls it.
//
// Deprecated: use Session.Do, which releases the lock on every exit.
func (s *Session) Acquire() (*Tx, error) {
	held := make(chan *Tx)
	go func() {
		err := s.Do(func(tx *Tx) error {
			tx.release = make(chan struct{})
			held <- tx
			<-tx.release
			return nil
		})
		if err != nil {
			close(held)
		}
	}()
	if tx, ok := <-held; ok {
		return tx, nil
	}
	return nil, ErrClosed
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
	err := s.Do(func(tx *Tx) error {
		sink = tx.a.SinkDist()
		return nil
	})
	return sink, err
}

// Percentile returns the p-quantile of the circuit-delay distribution.
func (s *Session) Percentile(p float64) (float64, error) {
	var v float64
	err := s.Do(func(tx *Tx) error {
		v = tx.a.Percentile(p)
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
	err := s.Do(func(tx *Tx) error {
		name = tx.obj.String()
		return nil
	})
	return name, err
}

// Arrival returns the arrival-time distribution at gate g's output.
func (s *Session) Arrival(g netlist.GateID) (*dist.Dist, error) {
	var arr *dist.Dist
	err := s.Do(func(tx *Tx) error {
		if err := tx.checkGate(g); err != nil {
			return err
		}
		arr = tx.a.Arrival(tx.d.E.NodeOf[tx.d.NL.Gate(g).Out])
		return nil
	})
	return arr, err
}

// Required returns the required-time distribution at gate g's output,
// running the backward pass first if no current one is cached.
func (s *Session) Required(ctx context.Context, g netlist.GateID) (*dist.Dist, error) {
	var req *dist.Dist
	err := s.Do(func(tx *Tx) error {
		if err := tx.checkGate(g); err != nil {
			return err
		}
		if err := tx.EnsureRequired(ctx); err != nil {
			return err
		}
		req = tx.a.Required(tx.d.E.NodeOf[tx.d.NL.Gate(g).Out])
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
		if err := tx.checkGate(g); err != nil {
			return err
		}
		if err := tx.EnsureRequired(ctx); err != nil {
			return err
		}
		sl = tx.a.Slack(tx.d.E.NodeOf[tx.d.NL.Gate(g).Out])
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
// and invalidates any cached required-time pass. The deadline must be
// finite.
func (s *Session) SetDeadline(t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("session: deadline %v is not finite", t)
	}
	return s.Do(func(tx *Tx) error {
		tx.deadline = t
		tx.hasDeadline = true
		tx.a.InvalidateRequired()
		return nil
	})
}

// Width returns gate g's current width.
func (s *Session) Width(g netlist.GateID) (float64, error) {
	var w float64
	err := s.Do(func(tx *Tx) error {
		if err := tx.checkGate(g); err != nil {
			return err
		}
		w = tx.d.Width(g)
		return nil
	})
	return w, err
}

// TotalWidth returns the sum of all gate widths (the paper's "total
// gate size").
func (s *Session) TotalWidth() (float64, error) {
	var w float64
	err := s.Do(func(tx *Tx) error {
		w = tx.d.TotalWidth()
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
	err := s.Do(func(tx *Tx) error {
		n = tx.d.NL.NumGates()
		return nil
	})
	return n, err
}

// DT returns the SSTA grid resolution the session was opened at.
func (s *Session) DT() (float64, error) {
	var dt float64
	err := s.Do(func(tx *Tx) error {
		dt = tx.a.DT
		return nil
	})
	return dt, err
}

// Snapshot returns an independent clone of the current design, safe to
// use after the session closes or moves on.
func (s *Session) Snapshot() (*design.Design, error) {
	var d *design.Design
	err := s.Do(func(tx *Tx) error {
		d = tx.d.Clone()
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
