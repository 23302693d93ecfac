package core

import (
	"context"

	"statsize/internal/session"
	"statsize/internal/ssta"
	"statsize/internal/sta"
)

// Deterministic runs the Section 4 baseline: coordinate descent on the
// nominal circuit delay. Each iteration computes, for every gate on the
// critical path, the change in nominal delay from one width step, and
// sizes up the most sensitive gate. Because it has no incentive to touch
// paths that are not nominally critical, it equalizes path delays into
// the "wall" of Figure 1a — which is exactly what the statistical
// optimizer avoids.
//
// The reported per-iteration Objective is the nominal circuit delay; the
// experiment harness reruns SSTA on the resulting designs to obtain the
// 99-percentile values Table 1 compares. Sizing commits go through the
// session, so its statistical view (sink distribution, slack queries)
// stays live while this nominal-only baseline runs.
func Deterministic(ctx context.Context, s *session.Session, cfg Config) (*Result, error) {
	return descend(ctx, s, cfg, "deterministic", nominalDelay, deterministicIteration)
}

// nominalDelay is the deterministic sizer's objective: the nominal
// circuit delay of the analysis' design.
func nominalDelay(a *ssta.Analysis, _ Config) float64 { return a.D.NominalDelay() }

// deterministicIteration scores every gate on the nominal critical path
// that can still grow by the nominal delay change of one width step from
// base, and picks the best one; MultiSize does not apply. Each trial
// reads the nominal delay at its width without writing the design
// (Design.NominalDelayAt).
func deterministicIteration(_ context.Context, a *ssta.Analysis, _ Config, base float64, _ *crew) (innerResult, error) {
	d := a.D
	var ir innerResult
	top := newTopK(1)
	for _, gid := range sta.Analyze(d).CriticalGates() {
		next := d.Width(gid) + d.Lib.DeltaW
		if next > d.Lib.WMax {
			continue
		}
		ir.considered++
		top.offer(pick{gate: gid, sens: (base - d.NominalDelayAt(gid, next)) / d.Lib.DeltaW})
	}
	ir.picks = top.sorted()
	return ir, nil
}
