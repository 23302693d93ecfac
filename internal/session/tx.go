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

// Tx is the state of a session and the working view of a held one:
// Session.Do hands it to its callback, and the optimizer inner loops
// and any caller that needs several queries and mutations to happen
// without interleaving work through it. A Tx is only valid inside the
// callback that received it, on that goroutine; Do releases the session
// when the callback returns.
type Tx struct {
	d      *design.Design
	a      *ssta.Analysis
	obj    Objective
	closed bool

	// scratch is the session's one evaluation working set, one Scratch
	// (kernel arena plus dense overlays) per worker. What-ifs, batches,
	// resize commits, required-time passes and optimizer sweeps all
	// compute through it, so a warm session allocates only what escapes
	// (persisted sinks and committed arrivals). A parallel sweep hands
	// the set to a par.Pool as its worker states, so each worker
	// computes in its own Scratch; the serial paths use scratch[0].
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

	// release ends the hold Session.Acquire took (see Release).
	release chan struct{}
}

// Release lets go of a session taken with Acquire. The Tx must not be
// used afterwards, and a Tx from Do must never be released by hand.
// Like Acquire, it stays exported only for the perfbench module's
// analysis probe.
//
// Deprecated: use Session.Do, which releases the lock on every exit.
func (t *Tx) Release() { close(t.release) }

// Design returns the session-owned design. It remains owned by the
// session: mutate widths only through Resize so the analysis stays
// consistent.
func (t *Tx) Design() *design.Design { return t.d }

// Analysis returns the live incremental analysis.
func (t *Tx) Analysis() *ssta.Analysis { return t.a }

// Scratch returns the session's evaluation working set, one Scratch per
// worker: the optimizers sweep their candidates over it, so one set of
// warm arenas and overlays serves every pass of the session. A
// parallel sweep hands the set to a par.Pool as its worker states.
func (t *Tx) Scratch() []*ssta.Scratch { return t.scratch }

// Objective evaluates the session objective on the current sink
// distribution.
func (t *Tx) Objective() float64 { return t.obj.Eval(t.a.SinkDist()) }

// Resize commits gate g at width w (clamped to the library range; NaN
// is an error) through ssta.ResizeCommit: the perturbation propagates
// incrementally, recomputing only the nodes it reaches, and only then
// do the design and the analysis take the new width, delays and
// arrivals. On error, including cancellation mid commit, neither was
// written, so a resize is all-or-nothing.
func (t *Tx) Resize(ctx context.Context, g netlist.GateID, w float64) (ResizeStats, error) {
	if err := t.checkMove(g, w); err != nil {
		return ResizeStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return ResizeStats{}, fmt.Errorf("session: resize canceled: %w", err)
	}
	oldW := t.d.Width(g)
	n, err := t.a.ResizeCommit(ctx, g, w, t.scratch[0])
	if err != nil {
		return ResizeStats{}, err
	}
	t.record(opResize, 1, n)
	return ResizeStats{
		Gate:            g,
		OldWidth:        oldW,
		NewWidth:        t.d.Width(g),
		NodesRecomputed: n,
		FullPassNodes:   t.stats.TotalNodes,
		Objective:       t.Objective(),
	}, nil
}

// WhatIf evaluates resizing gate g to width w without committing: the
// exact objective sensitivity from propagating the perturbation through
// the graph with overlays, pruned where the perturbation dies out. It
// is a WhatIfBatch of one candidate; neither the design nor the
// analysis changes.
func (t *Tx) WhatIf(ctx context.Context, g netlist.GateID, w float64) (WhatIfResult, error) {
	res, err := t.WhatIfBatch(ctx, []Candidate{{Gate: g, Width: w}})
	if err != nil {
		return WhatIfResult{}, err
	}
	return res[0], nil
}

// WhatIfBatch evaluates all candidates concurrently over the read-only
// base analysis, bounded by the session's worker pool. Every candidate
// gate is validated up front, so an invalid batch fails deterministically
// before any evaluation runs. Results are indexed by candidate position
// — never by completion order — and the objective evaluation and stats
// accounting run in that same order on the calling goroutine (so
// user-supplied objectives are never called concurrently), making a
// batch observationally identical to the equivalent serial WhatIf loop,
// for every worker count. Cancellation mid-batch abandons the remaining
// candidates and reports the context error; no partial results are
// returned (nothing was committed, so nothing needs undoing).
func (t *Tx) WhatIfBatch(ctx context.Context, candidates []Candidate) ([]WhatIfResult, error) {
	for i, c := range candidates {
		if err := t.checkMove(c.Gate, c.Width); err != nil {
			return nil, fmt.Errorf("session: what-if batch candidate %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session: what-if batch canceled: %w", err)
	}
	base := t.Objective()
	results := make([]WhatIfResult, len(candidates))
	sinks := make([]dist.Owned, len(candidates))
	// Each candidate only reads session state (the design's widths, the
	// base analysis), so the workers propagate concurrently, each in its
	// own Scratch, while the session lock pins that state. The objective
	// carries no thread-safety requirement, so its Eval runs only on this
	// goroutine, in the merge below.
	err := par.RunWith(ctx, t.scratch, len(candidates), func(sc *ssta.Scratch, i int) error {
		c := candidates[i]
		w := t.d.Lib.ClampWidth(c.Width)
		sink, visited, err := t.a.WhatIf(ctx, c.Gate, w, sc)
		results[i], sinks[i] = WhatIfResult{Gate: c.Gate, Width: w, NodesVisited: visited}, sink
		return err
	})
	if err != nil {
		// Dress pure cancellation in the batch wrapper; real evaluation
		// errors pass through even when the context also died meanwhile.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("session: what-if batch canceled: %w", err)
		}
		return nil, err
	}
	visited := 0
	for i := range results {
		r := &results[i]
		r.Objective = t.obj.Eval(sinks[i].Dist())
		r.Delta = base - r.Objective
		if dw := r.Width - t.d.Width(r.Gate); dw != 0 {
			r.Sensitivity = r.Delta / dw
		}
		visited += r.NodesVisited
	}
	t.record(opWhatIf, len(results), visited)
	return results, nil
}

// Checkpoint pushes a restore point and returns the checkpoint depth
// after the push. Checkpoints nest: each Rollback pops the most recent.
func (t *Tx) Checkpoint() int {
	t.marks = append(t.marks, mark{
		d:           t.d.Snapshot(),
		a:           t.a.Snapshot(),
		deadline:    t.deadline,
		hasDeadline: t.hasDeadline,
	})
	t.record(opCheckpoint, 1, 0)
	return len(t.marks)
}

// CheckpointDepth returns the number of pending checkpoints.
func (t *Tx) CheckpointDepth() int { return len(t.marks) }

// Rollback pops the most recent checkpoint and restores design,
// analysis and deadline setting to it; ErrNoCheckpoint when none is
// pending. The deadline travels with the mark so a restored
// required-time cache is never served against a deadline configured
// after the checkpoint.
func (t *Tx) Rollback() error {
	if len(t.marks) == 0 {
		return ErrNoCheckpoint
	}
	m := t.marks[len(t.marks)-1]
	t.marks = t.marks[:len(t.marks)-1]
	t.d.Restore(m.d)
	t.a.Restore(m.a)
	t.deadline = m.deadline
	t.hasDeadline = m.hasDeadline
	t.record(opRollback, 1, 0)
	return nil
}

// EnsureRequired makes a current backward required-time pass available,
// running one if the cache was invalidated. The deadline is the
// session's configured deadline, or the current objective value when
// none was set.
func (t *Tx) EnsureRequired(ctx context.Context) error {
	if t.a.HasRequired() {
		return nil
	}
	deadline := t.deadline
	if !t.hasDeadline {
		deadline = t.Objective()
	}
	if err := t.a.ComputeRequired(ctx, dist.Point(t.a.DT, deadline), t.scratch[0]); err != nil {
		return err
	}
	t.record(opRequired, 1, 0)
	return nil
}

// Stats returns the cumulative session accounting.
func (t *Tx) Stats() Stats { return t.stats }

// checkGate validates a gate ID against the netlist.
func (t *Tx) checkGate(g netlist.GateID) error {
	if g < 0 || int(g) >= t.d.NL.NumGates() {
		return fmt.Errorf("session: gate %d out of range [0,%d)", g, t.d.NL.NumGates())
	}
	return nil
}

// checkMove validates a resize or what-if of gate g to width w. A NaN
// width is rejected: ClampWidth passes it through, and a NaN delay has
// no grid index. ±Inf clamps to the library range like any width.
func (t *Tx) checkMove(g netlist.GateID, w float64) error {
	if math.IsNaN(w) {
		return fmt.Errorf("session: gate %d width is NaN", g)
	}
	return t.checkGate(g)
}
