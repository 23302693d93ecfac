package core

import (
	"context"
	"math"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/design"
	"statsize/internal/netlist"
	"statsize/internal/ssta"
)

// When every gate saturates at WMax, the optimizer must stop cleanly
// with no candidates rather than spin or crash.
func TestAllGatesAtMaxWidth(t *testing.T) {
	d := newDesign(t, "c17")
	for g := 0; g < d.NL.NumGates(); g++ {
		d.SetWidth(netlist.GateID(g), d.Lib.WMax)
	}
	res, err := runOn(t, d, Config{MaxIterations: 5}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Errorf("saturated design still ran %d iterations", res.Iterations)
	}
	if res.FinalObjective != res.InitialObjective {
		t.Error("saturated design changed objective")
	}
}

// A library with a tiny WMax forces saturation mid-run; the candidate
// set must shrink and the run must converge without error.
func TestSaturationMidRun(t *testing.T) {
	lib := cell.Default180nm()
	lib.WMax = 2.0 // two steps per gate
	d, err := design.New(netlist.C17(lib), lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOn(t, d, Config{MaxIterations: 100}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	// 6 gates x 2 steps = at most 12 sizing moves.
	if res.Iterations > 12 {
		t.Errorf("ran %d iterations, at most 12 moves possible", res.Iterations)
	}
	for g := 0; g < d.NL.NumGates(); g++ {
		if d.Width(netlist.GateID(g)) > lib.WMax {
			t.Error("width exceeded WMax")
		}
	}
}

// With a huge tolerance nothing is ever worth sizing.
func TestToleranceStopsImmediately(t *testing.T) {
	d := newDesign(t, "c17")
	res, err := runOn(t, d, Config{MaxIterations: 10, Tolerance: 1e9}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Error("huge tolerance should stop before the first sizing")
	}
}

// Deterministic optimizer on a saturated design.
func TestDeterministicSaturated(t *testing.T) {
	d := newDesign(t, "c17")
	for g := 0; g < d.NL.NumGates(); g++ {
		d.SetWidth(netlist.GateID(g), d.Lib.WMax)
	}
	res, err := runOn(t, d, Config{MaxIterations: 5}, Deterministic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Error("saturated deterministic run should not iterate")
	}
}

// Zero-variance libraries: the statistical optimizer degenerates to
// optimizing (a discretized image of) the nominal delay and must still
// run without numerical trouble.
func TestZeroSigmaStatisticalRun(t *testing.T) {
	lib := cell.Default180nm()
	lib.SigmaRatio = 0
	d, err := design.New(netlist.C17(lib), lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOn(t, d, Config{MaxIterations: 6, Bins: 2000}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || res.FinalObjective >= res.InitialObjective {
		t.Error("zero-sigma run should still improve the (nominal) delay")
	}
}

// Explicit DT override must be honored over Bins.
func TestExplicitGridOverride(t *testing.T) {
	d := newDesign(t, "c17")
	cfg := Config{MaxIterations: 1, DT: 0.004}.withDefaults()
	a, err := ssta.Analyze(context.Background(), d, gridFor(d, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if a.DT != 0.004 {
		t.Errorf("grid %v, want 0.004", a.DT)
	}
}

// Sensitivities can legitimately be negative (upsizing a gate whose
// fanin load penalty dominates); the optimizer must never commit one.
func TestNeverCommitsNegativeSensitivity(t *testing.T) {
	d := newDesign(t, "c432")
	res, err := runOn(t, d, Config{MaxIterations: 40}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Records {
		if r.Sensitivity <= 0 {
			t.Fatalf("iteration %d committed sensitivity %v", r.Iter, r.Sensitivity)
		}
	}
	// And the objective must be monotone non-increasing along the run.
	prev := res.InitialObjective
	for _, r := range res.Records {
		if r.Objective > prev+1e-9 {
			t.Fatalf("objective rose at iteration %d: %v -> %v", r.Iter, prev, r.Objective)
		}
		prev = r.Objective
	}
}

// The perturbation-front bookkeeping must empty out completely when a
// front is propagated to the end (no leaked nodes).
func TestFrontDrainsCompletely(t *testing.T) {
	d := smallDesign(t, 8)
	cfg := Config{DisablePruning: true}.withDefaults()
	a, err := ssta.Analyze(context.Background(), d, gridFor(d, cfg))
	if err != nil {
		t.Fatal(err)
	}
	c := newCrew([]*ssta.Scratch{ssta.NewScratch()})
	defer c.close()
	for _, gid := range candidateGates(d)[:10] {
		f, err := newFront(a, cfg, gid, c.workers[0])
		if err != nil {
			t.Fatal(err)
		}
		for !f.dead() {
			f.propagateOneLevel(a, cfg, c.workers[0])
		}
		if len(f.live) != 0 {
			t.Fatalf("gate %d: front leaked %d live nodes", gid, len(f.live))
		}
		f.release(c)
	}
}

// The warm start only reorders inner-loop evaluation; disabling it must
// leave the entire trajectory unchanged.
func TestWarmStartExactness(t *testing.T) {
	d1 := smallDesign(t, 14)
	d2 := smallDesign(t, 14)
	r1, err := runOn(t, d1, Config{MaxIterations: 12}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runOn(t, d2, Config{MaxIterations: 12, DisableWarmStart: true}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations != r2.Iterations {
		t.Fatalf("iterations differ: %d vs %d", r1.Iterations, r2.Iterations)
	}
	for i := range r1.Records {
		if r1.Records[i].Gates[0] != r2.Records[i].Gates[0] ||
			r1.Records[i].Sensitivity != r2.Records[i].Sensitivity {
			t.Fatalf("iter %d: warm start changed the choice", i)
		}
	}
	// On tiny circuits a stale hint can cost a little extra work (its
	// front is propagated fully even when mediocre); the win appears on
	// large circuits where crowded sensitivities make pruning hard. The
	// overhead must stay bounded either way.
	v1, v2 := 0, 0
	for i := range r1.Records {
		v1 += r1.Records[i].NodesVisited
		v2 += r2.Records[i].NodesVisited
	}
	if float64(v1) > 1.25*float64(v2) {
		t.Errorf("warm start visited %d nodes vs cold %d (>25%% overhead)", v1, v2)
	}
}

// MultiSize beyond the candidate count must size what exists and stop.
func TestMultiSizeOversized(t *testing.T) {
	d := newDesign(t, "c17")
	res, err := runOn(t, d, Config{MaxIterations: 2, MultiSize: 100}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations")
	}
	if len(res.Records[0].Gates) > d.NL.NumGates() {
		t.Error("sized more gates than exist")
	}
}

// An area cap below one step stops immediately after at most one move.
func TestTinyAreaCap(t *testing.T) {
	d := newDesign(t, "c432")
	res, err := runOn(t, d, Config{MaxIterations: 100, MaxAreaIncrease: 1e-9}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Errorf("tiny area cap allowed %d iterations", res.Iterations)
	}
}

// Mean and percentile objectives must order designs consistently with
// their definitions: optimizing the mean may not be optimal for p99 and
// vice versa, but both must improve their own metric.
func TestObjectivesImproveThemselves(t *testing.T) {
	for _, obj := range []Objective{Percentile(0.5), Percentile(0.99), Mean{}} {
		d := smallDesign(t, 9)
		res, err := runOn(t, d, Config{MaxIterations: 10, Objective: obj}, Accelerated)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalObjective >= res.InitialObjective {
			t.Errorf("objective %v did not improve: %v -> %v",
				obj, res.InitialObjective, res.FinalObjective)
		}
	}
}

// Improvement and AreaIncrease handle degenerate results.
func TestResultMetricsDegenerate(t *testing.T) {
	r := &Result{}
	if r.Improvement() != 0 || r.AreaIncrease() != 0 {
		t.Error("zero result should report zero metrics")
	}
	r = &Result{InitialObjective: 2, FinalObjective: 1, InitialWidth: 10, FinalWidth: 12}
	if math.Abs(r.Improvement()-50) > 1e-12 {
		t.Errorf("Improvement = %v, want 50", r.Improvement())
	}
	if math.Abs(r.AreaIncrease()-20) > 1e-12 {
		t.Errorf("AreaIncrease = %v, want 20", r.AreaIncrease())
	}
}
