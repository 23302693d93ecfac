package core

import (
	"context"
	"fmt"
	"time"

	"statsize/internal/netlist"
	"statsize/internal/session"
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
	start := time.Now()
	var res *Result
	err := s.Do(func(tx *session.Tx) (err error) {
		res, err = deterministic(ctx, tx, cfg.withDefaults(), start)
		return err
	})
	return res, err
}

// deterministic is Deterministic's run over the held session.
func deterministic(ctx context.Context, tx *session.Tx, cfg Config, start time.Time) (*Result, error) {
	d := tx.Design()
	res := &Result{
		Method:       "deterministic",
		InitialWidth: d.TotalWidth(),
		Design:       d,
	}
	res.InitialObjective = sta.Analyze(d).CircuitDelay()
	res.FinalObjective = res.InitialObjective

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			res.FinalWidth = d.TotalWidth()
			res.Elapsed = time.Since(start)
			return res, fmt.Errorf("core: deterministic optimization interrupted after %d iterations: %w",
				res.Iterations, err)
		}
		if areaCapReached(cfg, res.InitialWidth, d.TotalWidth()) {
			break
		}
		iterStart := time.Now()
		r := sta.Analyze(d)
		base := r.CircuitDelay()

		// Each trial width is written, analyzed and rolled back. Restore
		// rewrites the snapshot verbatim, so no load keeps the rounding
		// residue that undoing the width with SetWidth would leave.
		bestGate, bestSens := -1, 0.0
		candidates := 0
		pre := d.Snapshot()
		for _, gid := range r.CriticalGates() {
			w := d.Width(gid)
			next := w + d.Lib.DeltaW
			if next > d.Lib.WMax {
				continue
			}
			candidates++
			d.SetWidth(gid, next)
			after := sta.Analyze(d).CircuitDelay()
			d.Restore(pre)
			sens := (base - after) / d.Lib.DeltaW
			if sens > bestSens || (sens == bestSens && bestGate >= 0 && int(gid) < bestGate) {
				bestGate, bestSens = int(gid), sens
			}
		}
		if bestGate < 0 || bestSens <= cfg.Tolerance {
			break
		}
		gid := netlist.GateID(bestGate)
		if _, err := tx.Resize(ctx, gid, d.Width(gid)+d.Lib.DeltaW); err != nil {
			if ctx.Err() != nil {
				res.FinalWidth = d.TotalWidth()
				res.Elapsed = time.Since(start)
				return res, fmt.Errorf("core: deterministic optimization interrupted after %d iterations: %w",
					res.Iterations, ctx.Err())
			}
			return nil, err
		}
		after := sta.Analyze(d).CircuitDelay()

		rec := IterRecord{
			Iter:                 iter,
			Gates:                []netlist.GateID{gid},
			Sensitivity:          bestSens,
			Objective:            after,
			TotalWidth:           d.TotalWidth(),
			CandidatesConsidered: candidates,
			Elapsed:              time.Since(iterStart),
		}
		res.Records = append(res.Records, rec)
		res.Iterations++
		res.FinalObjective = after
		if cfg.OnIteration != nil {
			cfg.OnIteration(rec)
		}
	}
	res.FinalWidth = d.TotalWidth()
	res.Elapsed = time.Since(start)
	return res, nil
}
