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

// Tx is the working view of a held session: Session.Do hands one to
// its callback, and the optimizer inner loops and any caller that needs
// several queries and mutations to happen without interleaving work
// through it. A Tx is only valid inside the callback that received it,
// on that goroutine; Do releases the session when the callback returns.
type Tx struct {
	s *Session
}

// Release unlocks a session taken with Acquire. The Tx must not be used
// afterwards, and a Tx from Do must never be released by hand. Like
// Acquire, it stays exported only for the perfbench module's analysis
// probe.
//
// Deprecated: use Session.Do, which releases the lock on every exit.
func (t *Tx) Release() { t.s.mu.Unlock() }

// Design returns the session-owned design. It remains owned by the
// session: mutate widths only through Resize so the analysis stays
// consistent.
func (t *Tx) Design() *design.Design { return t.s.d }

// Analysis returns the live incremental analysis.
func (t *Tx) Analysis() *ssta.Analysis { return t.s.a }

// Scratch returns the session's evaluation working set, one Scratch per
// worker: the optimizers sweep their candidates over it, so one set of
// warm arenas and overlays serves every pass of the session. Worker w
// of a parallel sweep uses only element w.
func (t *Tx) Scratch() []*ssta.Scratch { return t.s.scratch }

// Objective evaluates the session objective on the current sink
// distribution.
func (t *Tx) Objective() float64 { return t.s.obj.Eval(t.s.a.SinkDist()) }

// Resize commits gate g at width w: the design width changes (clamped
// to the library range) and the perturbation propagates incrementally —
// recomputing only the nodes it actually reaches — before the analysis
// takes the new delays and arrivals. On error, including cancellation
// mid commit, the design width is restored and the analysis was never
// touched, so a resize is all-or-nothing.
func (t *Tx) Resize(ctx context.Context, g netlist.GateID, w float64) (ResizeStats, error) {
	s := t.s
	if err := s.checkGate(g); err != nil {
		return ResizeStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return ResizeStats{}, fmt.Errorf("session: resize canceled: %w", err)
	}
	oldW := s.d.Width(g)
	// Design pre-image for all-or-nothing semantics; ResizeCommit itself
	// writes the analysis only after its propagation completes.
	dSt := s.d.Snapshot()
	applied := s.d.SetWidth(g, w)
	n, err := s.a.ResizeCommit(ctx, g, s.scratch[0])
	if err != nil {
		s.d.Restore(dSt)
		return ResizeStats{}, err
	}
	s.record(opResize, 1, n)
	return ResizeStats{
		Gate:            g,
		OldWidth:        oldW,
		NewWidth:        applied,
		NodesRecomputed: n,
		FullPassNodes:   s.stats.TotalNodes,
		Objective:       t.Objective(),
	}, nil
}

// WhatIf evaluates resizing gate g to width w without committing: the
// exact objective sensitivity from propagating the perturbation through
// the graph with overlays, pruned where the perturbation dies out.
// Neither the design nor the analysis changes.
func (t *Tx) WhatIf(ctx context.Context, g netlist.GateID, w float64) (WhatIfResult, error) {
	s := t.s
	if err := s.checkGate(g); err != nil {
		return WhatIfResult{}, err
	}
	res, err := t.evalWhatIf(ctx, t.Objective(), g, w)
	if err != nil {
		return WhatIfResult{}, err
	}
	s.record(opWhatIf, 1, res.NodesVisited)
	return res, nil
}

// evalWhatIf is the stats-free evaluation core shared by WhatIf and
// WhatIfBatch: the propagation (whatIfSink) followed by the objective
// summary (finishWhatIf).
func (t *Tx) evalWhatIf(ctx context.Context, base float64, g netlist.GateID, w float64) (WhatIfResult, error) {
	wEff, sink, visited, err := t.whatIfSink(ctx, g, w, t.s.scratch[0])
	if err != nil {
		return WhatIfResult{}, err
	}
	return t.finishWhatIf(base, g, wEff, sink, visited), nil
}

// whatIfSink propagates one candidate's perturbation and returns the
// perturbed sink distribution. It only reads session state (the
// design's widths, the base analysis), so WhatIfBatch may invoke it
// from several goroutines at once while the session lock pins that
// state — each goroutine with its own Scratch. The user-supplied
// Objective is deliberately NOT evaluated here: objectives carry no
// thread-safety requirement, so their Eval runs only on the merging
// goroutine (finishWhatIf).
func (t *Tx) whatIfSink(ctx context.Context, g netlist.GateID, w float64, sc *ssta.Scratch) (float64, *dist.Dist, int, error) {
	s := t.s
	wEff := s.d.Lib.ClampWidth(w)
	sink, visited, err := s.a.WhatIf(ctx, g, wEff, sc)
	if err != nil {
		return 0, nil, visited, err
	}
	return wEff, sink, visited, nil
}

// finishWhatIf summarizes one propagated candidate into a WhatIfResult,
// evaluating the objective on the caller's goroutine.
func (t *Tx) finishWhatIf(base float64, g netlist.GateID, wEff float64, sink *dist.Dist, visited int) WhatIfResult {
	s := t.s
	after := s.obj.Eval(sink)
	res := WhatIfResult{
		Gate:         g,
		Width:        wEff,
		Objective:    after,
		Delta:        base - after,
		NodesVisited: visited,
	}
	if dw := wEff - s.d.Width(g); dw != 0 {
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
	s := t.s
	for i, c := range candidates {
		if err := s.checkGate(c.Gate); err != nil {
			return nil, fmt.Errorf("session: what-if batch candidate %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session: what-if batch canceled: %w", err)
	}
	base := t.Objective()
	type propagated struct {
		wEff    float64
		sink    *dist.Dist
		visited int
	}
	props := make([]propagated, len(candidates))
	err := par.RunIndexed(ctx, len(s.scratch), len(candidates), func(w, i int) error {
		wEff, sink, visited, err := t.whatIfSink(ctx, candidates[i].Gate, candidates[i].Width, s.scratch[w])
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
		results[i] = t.finishWhatIf(base, candidates[i].Gate, p.wEff, p.sink, p.visited)
		visited += p.visited
	}
	s.record(opWhatIf, len(results), visited)
	return results, nil
}

// Checkpoint pushes a restore point and returns the checkpoint depth
// after the push. Checkpoints nest: each Rollback pops the most recent.
func (t *Tx) Checkpoint() int {
	s := t.s
	s.marks = append(s.marks, mark{
		d:           s.d.Snapshot(),
		a:           s.a.Snapshot(),
		deadline:    s.deadline,
		hasDeadline: s.hasDeadline,
	})
	s.record(opCheckpoint, 1, 0)
	return len(s.marks)
}

// CheckpointDepth returns the number of pending checkpoints.
func (t *Tx) CheckpointDepth() int { return len(t.s.marks) }

// Rollback pops the most recent checkpoint and restores design,
// analysis and deadline setting to it; ErrNoCheckpoint when none is
// pending. The deadline travels with the mark so a restored
// required-time cache is never served against a deadline configured
// after the checkpoint.
func (t *Tx) Rollback() error {
	s := t.s
	if len(s.marks) == 0 {
		return ErrNoCheckpoint
	}
	m := s.marks[len(s.marks)-1]
	s.marks = s.marks[:len(s.marks)-1]
	s.d.Restore(m.d)
	s.a.Restore(m.a)
	s.deadline = m.deadline
	s.hasDeadline = m.hasDeadline
	s.record(opRollback, 1, 0)
	return nil
}

// EnsureRequired makes a current backward required-time pass available,
// running one if the cache was invalidated. The deadline is the
// session's configured deadline, or the current objective value when
// none was set.
func (t *Tx) EnsureRequired(ctx context.Context) error {
	s := t.s
	if s.a.HasRequired() {
		return nil
	}
	deadline := s.deadline
	if !s.hasDeadline {
		deadline = t.Objective()
	}
	if err := s.a.ComputeRequired(ctx, dist.Point(s.a.DT, deadline), s.scratch[0]); err != nil {
		return err
	}
	s.record(opRequired, 1, 0)
	return nil
}

// Stats returns the cumulative session accounting.
func (t *Tx) Stats() Stats { return t.s.stats }
