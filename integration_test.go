package statsize

import (
	"context"
	"math"
	"testing"
)

// Three independent timing engines — discretized SSTA, Gaussian moment
// propagation, and Monte Carlo — must agree on random circuits within
// their documented error envelopes. This is the strongest cross-check in
// the repository: the engines share no numerical machinery.
func TestThreeEngineConsistency(t *testing.T) {
	eng := newEngine(t)
	ctx := context.Background()
	for seed := int64(1); seed <= 5; seed++ {
		d, err := eng.GenerateCircuit(CircuitSpec{
			Name:  "xcheck",
			Nodes: 120, Edges: 210, PIs: 10, POs: 6, Depth: 12,
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, err := eng.AnalyzeSSTA(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		ga := AnalyzeGaussian(d)
		mc, err := eng.MonteCarlo(ctx, d, 20000, seed*31)
		if err != nil {
			t.Fatal(err)
		}
		p50 := []float64{a.Percentile(0.5), ga.Percentile(0.5), mc.Percentile(0.5)}
		for i := 1; i < 3; i++ {
			if rel := math.Abs(p50[i]-p50[0]) / p50[0]; rel > 0.03 {
				t.Errorf("seed %d: engine %d median %.4f vs SSTA %.4f (%.1f%%)",
					seed, i, p50[i], p50[0], rel*100)
			}
		}
		// The SSTA bound is conservative versus MC at the objective
		// percentile (sampling noise tolerance only).
		if a.Percentile(0.99) < mc.Percentile(0.99)*(1-0.006) {
			t.Errorf("seed %d: bound %.4f under MC %.4f", seed,
				a.Percentile(0.99), mc.Percentile(0.99))
		}
	}
}

// Optimize-then-validate: after an accelerated run, the objective the
// optimizer reports must match a from-scratch SSTA pass exactly and
// Monte Carlo within the bound's envelope.
func TestOptimizeThenValidate(t *testing.T) {
	eng := newEngine(t)
	ctx := context.Background()
	d, err := eng.Benchmark("c880")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Optimize(ctx, d, "accelerated", MaxIterations(15))
	if err != nil {
		t.Fatal(err)
	}
	sized := res.Design
	// The incremental commits inside the optimizer must leave the sized
	// clone in a state where a fresh analysis reproduces the reported
	// value.
	a, err := eng.AnalyzeSSTA(ctx, sized)
	if err != nil {
		t.Fatal(err)
	}
	fresh := a.Percentile(0.99)
	if rel := math.Abs(fresh-res.FinalObjective) / fresh; rel > 0.002 {
		t.Errorf("fresh SSTA p99 %.5f vs optimizer-reported %.5f", fresh, res.FinalObjective)
	}
	mc, err := eng.MonteCarlo(ctx, sized, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rel := (res.FinalObjective - mc.Percentile(0.99)) / mc.Percentile(0.99); rel < -0.006 || rel > 0.05 {
		t.Errorf("optimized p99 %.4f vs MC %.4f (%.2f%%)",
			res.FinalObjective, mc.Percentile(0.99), rel*100)
	}
	// Loads must not have drifted through hundreds of incremental
	// updates.
	if err := sized.RecomputeLoads(1e-9); err != nil {
		t.Error(err)
	}
}
