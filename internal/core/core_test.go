package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/design"
	"statsize/internal/netlist"
	"statsize/internal/session"
	"statsize/internal/ssta"
)

func newDesign(t testing.TB, name string) *design.Design {
	t.Helper()
	lib := cell.Default180nm()
	var nl *netlist.Netlist
	if name == "c17" {
		nl = netlist.C17(lib)
	} else {
		sp, ok := circuitgen.ByName(name)
		if !ok {
			t.Fatalf("unknown circuit %q", name)
		}
		var err error
		nl, err = circuitgen.Generate(lib, sp)
		if err != nil {
			t.Fatal(err)
		}
	}
	d, err := design.New(nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallDesign(t testing.TB, seed int64) *design.Design {
	t.Helper()
	lib := cell.Default180nm()
	sp := circuitgen.Spec{Name: "small", Nodes: 60, Edges: 104, PIs: 8, POs: 5, Depth: 8, Seed: seed}
	nl, err := circuitgen.Generate(lib, sp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.New(nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runOn opens a session over d (as the facade does) and runs the
// optimizer against it — the one-line bridge the pre-session tests
// drove the design-taking signatures with.
func runOn(t testing.TB, d *design.Design, cfg Config,
	opt func(context.Context, *session.Session, Config) (*Result, error)) (*Result, error) {
	t.Helper()
	s, err := OpenSession(context.Background(), d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return opt(context.Background(), s, cfg)
}

func TestObjectives(t *testing.T) {
	d := newDesign(t, "c17")
	a, err := ssta.Analyze(context.Background(), d, d.SuggestDT(500))
	if err != nil {
		t.Fatal(err)
	}
	s := a.SinkDist()
	if Percentile(0.99).Eval(s) != s.Percentile(0.99) {
		t.Error("Percentile objective mismatch")
	}
	if (Mean{}).Eval(s) != s.Mean() {
		t.Error("Mean objective mismatch")
	}
	if Percentile(0.99).String() == "" || (Mean{}).String() == "" {
		t.Error("objective names empty")
	}
}

func TestDeterministicImproves(t *testing.T) {
	d := newDesign(t, "c432")
	res, err := runOn(t, d, Config{MaxIterations: 25}, Deterministic)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations performed")
	}
	if res.FinalObjective >= res.InitialObjective {
		t.Errorf("nominal delay did not improve: %v -> %v", res.InitialObjective, res.FinalObjective)
	}
	if res.FinalWidth <= res.InitialWidth {
		t.Error("total width should grow")
	}
	// One gate per iteration, one width step each.
	wantArea := res.InitialWidth + float64(res.Iterations)*d.Lib.DeltaW
	if math.Abs(res.FinalWidth-wantArea) > 1e-9 {
		t.Errorf("area accounting: %v, want %v", res.FinalWidth, wantArea)
	}
}

func TestAcceleratedImproves(t *testing.T) {
	d := newDesign(t, "c432")
	res, err := runOn(t, d, Config{MaxIterations: 20}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations performed")
	}
	if res.FinalObjective >= res.InitialObjective {
		t.Errorf("p99 did not improve: %v -> %v", res.InitialObjective, res.FinalObjective)
	}
	if res.Improvement() <= 0 || res.AreaIncrease() <= 0 {
		t.Error("summary metrics inconsistent")
	}
	// Pruning must actually happen on a real circuit.
	pruned := 0
	for _, rec := range res.Records {
		pruned += rec.CandidatesPruned
	}
	if pruned == 0 {
		t.Error("no candidates pruned in 20 iterations")
	}
}

// The headline claim: the accelerated algorithm is exact — identical
// gate choices, sensitivities and objective trajectory to brute force.
func TestAcceleratedMatchesBruteForceTrajectories(t *testing.T) {
	for _, tc := range []struct {
		name  string
		iters int
	}{
		{"c17", 12},
		{"small-1", 15},
		{"small-2", 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var db, da *design.Design
			switch tc.name {
			case "c17":
				db, da = newDesign(t, "c17"), newDesign(t, "c17")
			case "small-1":
				db, da = smallDesign(t, 1), smallDesign(t, 1)
			default:
				db, da = smallDesign(t, 2), smallDesign(t, 2)
			}
			// Three workers whatever the host, so a sweep or a front step
			// that computes in another worker's scratch fails here (and
			// races under -race) even on one CPU.
			cfg := Config{MaxIterations: tc.iters, Parallelism: 3}
			rb, err := runOn(t, db, cfg, BruteForce)
			if err != nil {
				t.Fatal(err)
			}
			ra, err := runOn(t, da, cfg, Accelerated)
			if err != nil {
				t.Fatal(err)
			}
			if rb.Iterations != ra.Iterations {
				t.Fatalf("iteration counts differ: brute %d vs accel %d", rb.Iterations, ra.Iterations)
			}
			for i := range rb.Records {
				b, a := rb.Records[i], ra.Records[i]
				if len(b.Gates) != 1 || len(a.Gates) != 1 || b.Gates[0] != a.Gates[0] {
					t.Fatalf("iter %d: different gate chosen: brute %v vs accel %v", i, b.Gates, a.Gates)
				}
				if math.Abs(b.Sensitivity-a.Sensitivity) > 1e-12 {
					t.Fatalf("iter %d: sensitivities differ: %v vs %v", i, b.Sensitivity, a.Sensitivity)
				}
				if math.Abs(b.Objective-a.Objective) > 1e-12 {
					t.Fatalf("iter %d: objectives differ: %v vs %v", i, b.Objective, a.Objective)
				}
			}
			if math.Abs(rb.FinalObjective-ra.FinalObjective) > 1e-12 {
				t.Fatalf("final objectives differ: %v vs %v", rb.FinalObjective, ra.FinalObjective)
			}
			// The widths must agree gate by gate.
			for g := 0; g < db.NL.NumGates(); g++ {
				if db.Width(netlist.GateID(g)) != da.Width(netlist.GateID(g)) {
					t.Fatalf("gate %d widths diverged", g)
				}
			}
		})
	}
}

// Smx must bound the exact sensitivity for every candidate (Theorem 4):
// run one inner iteration with pruning disabled and compare each front's
// initial bound against its final exact sensitivity. On the p99
// objective both prune rules rest on the bound in whole grid steps, so
// at every level step the candidate's improvement in steps,
// round((base − obj)/dt), must not exceed the bound's, round(smx/dt),
// with no pruneSlack. The c880 case starts after 8 accelerated
// iterations, where improvements crowd into ties.
func TestFrontBoundDominatesSensitivity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		d     func(t *testing.T) *design.Design
		sized int // accelerated iterations run before the check
	}{
		{"small-3", func(t *testing.T) *design.Design { return smallDesign(t, 3) }, 0},
		{"c880-sized", func(t *testing.T) *design.Design { return newDesign(t, "c880") }, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{DisablePruning: true}.withDefaults()
			s, err := OpenSession(context.Background(), tc.d(t), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if tc.sized > 0 {
				res, err := Accelerated(context.Background(), s, Config{MaxIterations: tc.sized})
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations != tc.sized {
					t.Fatalf("sized %d iterations, want %d", res.Iterations, tc.sized)
				}
			}
			err = s.Do(func(tx *session.Tx) error {
				checkFrontBounds(t, tx.Analysis(), cfg)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkFrontBounds steps every candidate's front of a to the sink and
// checks its bound against the candidate's exact improvement.
func checkFrontBounds(t *testing.T, a *ssta.Analysis, cfg Config) {
	t.Helper()
	d, dt := a.D, a.DT
	base := cfg.Objective.Eval(a.SinkDist())
	c := newCrew([]*ssta.Scratch{ssta.NewScratch()})
	defer c.close()
	fronts, gaining, tight := 0, 0, 0
	for _, gid := range candidateGates(d) {
		f, err := newFront(a, cfg, gid, c.workers[0])
		if err != nil {
			t.Fatal(err)
		}
		bound := f.smx / d.Lib.DeltaW
		prevBound := math.Inf(1)
		// The bound of every live step, in whole grid steps.
		steps := []float64{math.Round(f.smx / dt)}
		for !f.dead() {
			f.propagateOneLevel(a, cfg, c.workers[0])
			b := f.smx / d.Lib.DeltaW
			if b > prevBound+pruneSlack {
				t.Fatalf("gate %d: front bound grew from %v to %v", gid, prevBound, b)
			}
			prevBound = b
			if !f.dead() {
				steps = append(steps, math.Round(f.smx/dt))
			}
		}
		sens, gain := 0.0, 0.0
		if sink := f.sinkDist.Dist(); sink != nil {
			obj := cfg.Objective.Eval(sink)
			sens = (base - obj) / d.Lib.DeltaW
			gain = math.Round((base - obj) / dt)
		}
		if sens > bound+pruneSlack {
			t.Errorf("gate %d: sensitivity %v exceeds initial bound %v", gid, sens, bound)
		}
		for i, b := range steps {
			if gain > b {
				t.Errorf("gate %d: improves by %v grid steps, above the bound of %v steps at level step %d", gid, gain, b, i)
			}
		}
		fronts++
		if gain > 0 {
			gaining++
			if gain == steps[len(steps)-1] {
				tight++
			}
		}
		f.release(c)
	}
	t.Logf("%d fronts, %d improve the objective, %d by exactly their last bound in whole steps", fronts, gaining, tight)
}

func TestMaxIterationsHonored(t *testing.T) {
	d := newDesign(t, "c17")
	res, err := runOn(t, d, Config{MaxIterations: 3}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Errorf("ran %d iterations, cap was 3", res.Iterations)
	}
}

func TestAreaCapHonored(t *testing.T) {
	d := newDesign(t, "c17")
	res, err := runOn(t, d, Config{MaxIterations: 1000, MaxAreaIncrease: 0.10}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.AreaIncrease() > 10+100*d.Lib.DeltaW/res.InitialWidth {
		t.Errorf("area increased %.1f%%, cap was 10%%", res.AreaIncrease())
	}
}

func TestMultiSize(t *testing.T) {
	d := smallDesign(t, 4)
	res, err := runOn(t, d, Config{MaxIterations: 5, MultiSize: 3}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations")
	}
	if len(res.Records[0].Gates) < 2 {
		t.Errorf("multi-size iteration sized %d gates, want >= 2", len(res.Records[0].Gates))
	}
	if res.FinalObjective >= res.InitialObjective {
		t.Error("multi-size run did not improve")
	}
}

func TestHeuristicMode(t *testing.T) {
	d := smallDesign(t, 5)
	res, err := runOn(t, d, Config{MaxIterations: 10, HeuristicLevels: 3}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("heuristic run made no progress")
	}
	if res.FinalObjective >= res.InitialObjective {
		t.Error("heuristic run did not improve the objective")
	}
}

func TestMeanObjective(t *testing.T) {
	d := smallDesign(t, 6)
	res, err := runOn(t, d, Config{MaxIterations: 8, Objective: Mean{}}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalObjective >= res.InitialObjective {
		t.Error("mean-objective run did not improve")
	}
}

func TestDisableAblationsStillExact(t *testing.T) {
	// With pruning and elision disabled the algorithm degenerates to a
	// front-based brute force; results must be unchanged.
	d1 := smallDesign(t, 7)
	d2 := smallDesign(t, 7)
	r1, err := runOn(t, d1, Config{MaxIterations: 6}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runOn(t, d2, Config{MaxIterations: 6, DisablePruning: true, DisableDeadFrontElision: true}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations != r2.Iterations || math.Abs(r1.FinalObjective-r2.FinalObjective) > 1e-12 {
		t.Error("ablation flags changed optimization results")
	}
	for i := range r1.Records {
		if r1.Records[i].Gates[0] != r2.Records[i].Gates[0] {
			t.Fatalf("iter %d: ablation changed gate choice", i)
		}
	}
	// Pruning must make the inner loop cheaper.
	v1, v2 := 0, 0
	for i := range r1.Records {
		v1 += r1.Records[i].NodesVisited
		v2 += r2.Records[i].NodesVisited
	}
	if v1 >= v2 {
		t.Errorf("pruned run visited %d nodes, unpruned %d — pruning saved nothing", v1, v2)
	}
}

func TestTopK(t *testing.T) {
	top := newTopK(2)
	top.offer(pick{gate: 5, sens: 1.0})
	top.offer(pick{gate: 3, sens: 3.0})
	top.offer(pick{gate: 9, sens: 2.0})
	top.offer(pick{gate: 1, sens: 0.5})
	got := top.sorted()
	if len(got) != 2 || got[0].gate != 3 || got[1].gate != 9 {
		t.Fatalf("topK = %v", got)
	}
	if k := top.kth(); k.sens != 2.0 || k.gate != 9 {
		t.Errorf("kth = %v, want gate 9 at 2", k)
	}
	// Ties resolve to lowest gate ID.
	tie := newTopK(1)
	tie.offer(pick{gate: 7, sens: 1.0})
	tie.offer(pick{gate: 2, sens: 1.0})
	if tie.sorted()[0].gate != 2 {
		t.Error("tie should resolve to lowest gate ID")
	}
}

func TestTraceCallback(t *testing.T) {
	d := newDesign(t, "c17")
	calls := 0
	_, err := runOn(t, d, Config{MaxIterations: 4, OnIteration: func(r IterRecord) {
		calls++
		if r.TotalWidth <= 0 || r.Objective <= 0 {
			t.Error("bad trace record")
		}
	}}, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("trace callback never invoked")
	}
}

// TestAcceleratedCancelMidRun: regression for the unchecked hint-front
// drain ctxflow flagged in acceleratedIteration — cancellation raised
// mid-run (here from the OnIteration hook, after warm-start hints
// exist) must stop the run at the next observation point and return the
// partial result wrapped around context.Canceled, per the Engine
// contract.
func TestAcceleratedCancelMidRun(t *testing.T) {
	d := newDesign(t, "c432")
	s, err := OpenSession(context.Background(), d, Config{MaxIterations: 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Accelerated(ctx, s, Config{MaxIterations: 50, OnIteration: func(IterRecord) { cancel() }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want a context.Canceled wrap", err)
	}
	if res == nil || res.Iterations != 1 {
		t.Fatalf("partial result = %+v, want exactly the one committed iteration", res)
	}
}
