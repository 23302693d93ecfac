package core

import (
	"context"

	"statsize/internal/dist"
	"statsize/internal/session"
	"statsize/internal/ssta"
)

// BruteForce runs exact statistical sizing as described in Section 3.1:
// every iteration evaluates every candidate gate's sensitivity with a
// complete SSTA propagation of its perturbation to the sink — the
// O(N·E)-per-iteration reference the accelerated algorithm is measured
// against in Table 2, and the ground truth its results must match
// exactly.
func BruteForce(ctx context.Context, s *session.Session, cfg Config) (*Result, error) {
	return descend(ctx, s, cfg, "brute-force", sinkObjective, bruteForceIteration)
}

// bruteForceIteration computes every candidate's exact sensitivity by a
// full overlay SSTA pass (Analysis.WhatIfFull) and returns the top
// MultiSize gates. The sweeps are independent — each candidate's pass
// owns its worker's scratch and only reads the base analysis — so they
// fan out across the session's workers; the top-k selection then merges
// in candidate order, never completion order, so the picks (including
// tie-breaks) are bit-identical to the serial sweep. Cancellation is
// checked per candidate — each one costs a full SSTA propagation, the
// natural granularity.
func bruteForceIteration(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, c *crew) (innerResult, error) {
	d := a.D
	var ir innerResult
	cands := candidateGates(d)
	type sweep struct {
		sink    dist.Owned
		visited int
	}
	sweeps := make([]sweep, len(cands))
	// Each candidate's full pass computes in its worker's scratch; only
	// the persisted sink distribution escapes.
	err := c.pool.Run(ctx, len(cands), func(w *worker, i int) error {
		x := cands[i]
		var err error
		sweeps[i].sink, sweeps[i].visited, err = a.WhatIfFull(x, d.Width(x)+d.Lib.DeltaW, w.sc)
		return err
	})
	if err != nil {
		// The pool already prefers the lowest-index evaluation error over
		// a bare cancellation, matching the serial loop's reporting.
		return ir, err
	}
	// The user-supplied objective is evaluated here, in candidate order
	// on this goroutine — objectives carry no thread-safety requirement.
	top := newTopK(cfg.MultiSize)
	for i, s := range sweeps {
		ir.considered++
		ir.nodesVisited += s.visited
		top.offer(pick{gate: cands[i], sens: (base - cfg.Objective.Eval(s.sink.Dist())) / d.Lib.DeltaW})
	}
	ir.picks = top.sorted()
	return ir, nil
}
