package session

import (
	"context"
	"errors"
	"fmt"

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

// Resize commits gate g at width w: the design width changes (clamped
// to the library range) and the perturbation propagates incrementally —
// recomputing only the nodes it actually reaches — before the analysis
// takes the new delays and arrivals. On error, including cancellation
// mid commit, the design width is restored and the analysis was never
// touched, so a resize is all-or-nothing.
func (t *Tx) Resize(ctx context.Context, g netlist.GateID, w float64) (ResizeStats, error) {
	if err := t.checkGate(g); err != nil {
		return ResizeStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return ResizeStats{}, fmt.Errorf("session: resize canceled: %w", err)
	}
	oldW := t.d.Width(g)
	// Design pre-image for all-or-nothing semantics; ResizeCommit itself
	// writes the analysis only after its propagation completes.
	dSt := t.d.Snapshot()
	applied := t.d.SetWidth(g, w)
	n, err := t.a.ResizeCommit(ctx, g, t.scratch[0])
	if err != nil {
		t.d.Restore(dSt)
		return ResizeStats{}, err
	}
	t.record(opResize, 1, n)
	return ResizeStats{
		Gate:            g,
		OldWidth:        oldW,
		NewWidth:        applied,
		NodesRecomputed: n,
		FullPassNodes:   t.stats.TotalNodes,
		Objective:       t.Objective(),
	}, nil
}

// WhatIf evaluates resizing gate g to width w without committing: the
// exact objective sensitivity from propagating the perturbation through
// the graph with overlays, pruned where the perturbation dies out.
// Neither the design nor the analysis changes.
func (t *Tx) WhatIf(ctx context.Context, g netlist.GateID, w float64) (WhatIfResult, error) {
	if err := t.checkGate(g); err != nil {
		return WhatIfResult{}, err
	}
	res, err := t.evalWhatIf(ctx, t.Objective(), g, w)
	if err != nil {
		return WhatIfResult{}, err
	}
	t.record(opWhatIf, 1, res.NodesVisited)
	return res, nil
}

// evalWhatIf is the stats-free evaluation core shared by WhatIf and
// WhatIfBatch: the propagation (whatIfSink) followed by the objective
// summary (finishWhatIf).
func (t *Tx) evalWhatIf(ctx context.Context, base float64, g netlist.GateID, w float64) (WhatIfResult, error) {
	wEff, sink, visited, err := t.whatIfSink(ctx, g, w, t.scratch[0])
	if err != nil {
		return WhatIfResult{}, err
	}
	return t.finishWhatIf(base, g, wEff, sink.Dist(), visited), nil
}

// whatIfSink propagates one candidate's perturbation and returns the
// perturbed sink distribution. It only reads session state (the
// design's widths, the base analysis), so WhatIfBatch may invoke it
// from several goroutines at once while the session lock pins that
// state — each goroutine with its own Scratch. The user-supplied
// Objective is deliberately NOT evaluated here: objectives carry no
// thread-safety requirement, so their Eval runs only on the merging
// goroutine (finishWhatIf).
func (t *Tx) whatIfSink(ctx context.Context, g netlist.GateID, w float64, sc *ssta.Scratch) (float64, dist.Owned, int, error) {
	wEff := t.d.Lib.ClampWidth(w)
	sink, visited, err := t.a.WhatIf(ctx, g, wEff, sc)
	if err != nil {
		return 0, dist.Owned{}, visited, err
	}
	return wEff, sink, visited, nil
}

// finishWhatIf summarizes one propagated candidate into a WhatIfResult,
// evaluating the objective on the caller's goroutine.
func (t *Tx) finishWhatIf(base float64, g netlist.GateID, wEff float64, sink *dist.Dist, visited int) WhatIfResult {
	after := t.obj.Eval(sink)
	res := WhatIfResult{
		Gate:         g,
		Width:        wEff,
		Objective:    after,
		Delta:        base - after,
		NodesVisited: visited,
	}
	if dw := wEff - t.d.Width(g); dw != 0 {
		res.Sensitivity = res.Delta / dw
	}
	return res
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
		if err := t.checkGate(c.Gate); err != nil {
			return nil, fmt.Errorf("session: what-if batch candidate %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session: what-if batch canceled: %w", err)
	}
	base := t.Objective()
	type propagated struct {
		wEff    float64
		sink    dist.Owned
		visited int
	}
	props := make([]propagated, len(candidates))
	err := par.RunWith(ctx, t.scratch, len(candidates), func(sc *ssta.Scratch, i int) error {
		wEff, sink, visited, err := t.whatIfSink(ctx, candidates[i].Gate, candidates[i].Width, sc)
		if err != nil {
			return err
		}
		props[i] = propagated{wEff: wEff, sink: sink, visited: visited}
		return nil
	})
	if err != nil {
		// Dress pure cancellation in the batch wrapper; real evaluation
		// errors pass through even when the context also died meanwhile.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("session: what-if batch canceled: %w", err)
		}
		return nil, err
	}
	results := make([]WhatIfResult, len(candidates))
	visited := 0
	for i, p := range props {
		results[i] = t.finishWhatIf(base, candidates[i].Gate, p.wEff, p.sink.Dist(), p.visited)
		visited += p.visited
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
