package statsize

import (
	"context"
	"math"
	"testing"
)

func TestGaussianFacade(t *testing.T) {
	eng := newEngine(t, WithBins(800))
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	ga := AnalyzeGaussian(d)
	a, err := eng.AnalyzeSSTA(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	// Both engines agree on the median within ~1.5%.
	g, s := ga.Percentile(0.5), a.Percentile(0.5)
	if rel := math.Abs(g-s) / s; rel > 0.015 {
		t.Errorf("gaussian p50 %.4f vs discretized %.4f (%.2f%%)", g, s, rel*100)
	}
}

func TestTopPathsFacade(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	paths := TopPaths(d, 3)
	if len(paths) != 3 {
		t.Fatalf("got %d paths", len(paths))
	}
	if paths[0].Delay < paths[1].Delay || paths[1].Delay < paths[2].Delay {
		t.Error("paths not in descending delay order")
	}
	if math.Abs(paths[0].Delay-eng.AnalyzeSTA(d).CircuitDelay()) > 1e-9 {
		t.Error("top path must be the critical path")
	}
}

func TestCriticalityFacade(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	crit, err := eng.Criticality(context.Background(), d, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(crit) != d.NL.NumGates() {
		t.Fatal("criticality length mismatch")
	}
	sum := 0.0
	for _, c := range crit {
		if c < 0 || c > 1 {
			t.Fatalf("criticality %v out of [0,1]", c)
		}
		sum += c
	}
	if sum == 0 {
		t.Error("no gate ever critical")
	}
}

func TestCorrelatedMCFacade(t *testing.T) {
	eng := newEngine(t)
	ctx := context.Background()
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	ind, err := eng.MonteCarloCorrelated(ctx, d, 8000, 5, CorrModel{})
	if err != nil {
		t.Fatal(err)
	}
	corr, err := eng.MonteCarloCorrelated(ctx, d, 8000, 5, CorrModel{GlobalFrac: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if corr.Std() <= ind.Std() {
		t.Error("correlation should widen the circuit-delay distribution")
	}
}

// The three optimizers expose a consistent protocol: running any of them
// on a WMax-saturated design is a clean no-op.
func TestOptimizersOnSaturatedDesign(t *testing.T) {
	eng := newEngine(t)
	for _, opt := range []string{"deterministic", "brute-force", "accelerated"} {
		d, err := eng.Benchmark("c17")
		if err != nil {
			t.Fatal(err)
		}
		lib := d.Lib
		for g := 0; g < d.NL.NumGates(); g++ {
			d.SetWidth(GateID(g), lib.WMax)
		}
		res, err := eng.Optimize(context.Background(), d, opt, MaxIterations(3))
		if err != nil {
			t.Fatalf("%s: %v", opt, err)
		}
		if res.Iterations != 0 {
			t.Errorf("%s iterated on a saturated design", opt)
		}
	}
}
