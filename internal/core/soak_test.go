package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"statsize/internal/session"
)

// Forty dual iterations on a real benchmark: the accelerated optimizer
// must shadow brute force exactly through regimes where sensitivities
// crowd together and pruning gets hard (the paper's own observation
// about late iterations). Skipped with -short.
func TestLongHorizonExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak test")
	}
	db := newDesign(t, "c432")
	da := newDesign(t, "c432")
	cfg := Config{MaxIterations: 40}
	rb, err := runOn(t, db, cfg, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := runOn(t, da, cfg, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Iterations != ra.Iterations {
		t.Fatalf("iterations: brute %d vs accel %d", rb.Iterations, ra.Iterations)
	}
	for i := range rb.Records {
		if rb.Records[i].Gates[0] != ra.Records[i].Gates[0] {
			t.Fatalf("iter %d: gates %v vs %v (sens %v vs %v)",
				i, rb.Records[i].Gates, ra.Records[i].Gates,
				rb.Records[i].Sensitivity, ra.Records[i].Sensitivity)
		}
		if math.Abs(rb.Records[i].Sensitivity-ra.Records[i].Sensitivity) > 1e-12 {
			t.Fatalf("iter %d: sensitivity drift", i)
		}
	}
	if math.Abs(rb.FinalObjective-ra.FinalObjective) > 1e-12 {
		t.Fatal("final objectives diverged")
	}
	// Sanity on the run itself: meaningful improvement and pruning.
	if ra.Improvement() < 5 {
		t.Errorf("only %.2f%% improvement over 40 iterations", ra.Improvement())
	}
	var pruned, considered int
	for _, r := range ra.Records {
		pruned += r.CandidatesPruned
		considered += r.CandidatesConsidered
	}
	if frac := float64(pruned) / float64(considered); frac < 0.5 {
		t.Errorf("pruning rate %.1f%% over the long run", frac*100)
	}
}

// The same soak with MultiSize: both optimizers must agree on the whole
// set of gates sized per iteration.
func TestMultiSizeExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak test")
	}
	db := smallDesign(t, 12)
	da := smallDesign(t, 12)
	cfg := Config{MaxIterations: 8, MultiSize: 3}
	rb, err := runOn(t, db, cfg, BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := runOn(t, da, cfg, Accelerated)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Iterations != ra.Iterations {
		t.Fatalf("iterations differ: %d vs %d", rb.Iterations, ra.Iterations)
	}
	for i := range rb.Records {
		bg, ag := rb.Records[i].Gates, ra.Records[i].Gates
		if len(bg) != len(ag) {
			t.Fatalf("iter %d: sized %d vs %d gates", i, len(bg), len(ag))
		}
		for j := range bg {
			if bg[j] != ag[j] {
				t.Fatalf("iter %d slot %d: %v vs %v", i, j, bg, ag)
			}
		}
	}
}

// TestTieBreakExactnessC1908 runs the optimize benchmark's set-up —
// c1908 at 600 bins from minimum widths, 16 iterations — into the
// regime where sizing has balanced the paths. There improving
// candidates lower the p99 by the same whole grid step, their
// sensitivities tie bit for bit, and the pick goes to the lowest gate
// ID: exactly where the accelerated optimizer prunes fronts that can
// at best tie. Accelerated and multi-size must shadow brute force bit
// for bit in every iteration. Before each brute-force step an
// all-candidate what-if batch counts the candidates that share the
// k-th best improvement; at least one iteration must tie, so the test
// cannot pass without exercising the tie rule. Skipped with -short.
func TestTieBreakExactnessC1908(t *testing.T) {
	if testing.Short() {
		t.Skip("c1908 brute force in short mode")
	}
	const iters = 16
	for _, multi := range []int{1, 3} {
		t.Run(fmt.Sprintf("multi-size-%d", multi), func(t *testing.T) {
			ctx := context.Background()
			cfg := Config{Bins: 600, MaxIterations: iters, MultiSize: multi}
			ra, err := runOn(t, newDesign(t, "c1908"), cfg, Accelerated)
			if err != nil {
				t.Fatal(err)
			}
			// Brute force steps one iteration per run, so the what-if
			// batch reads the design each step starts from; iterations carry
			// no state, so this is the same trajectory as one run.
			s, err := OpenSession(ctx, newDesign(t, "c1908"), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			one := cfg
			one.MaxIterations = 1
			var tied []int
			for i := 0; i < iters; i++ {
				tied = append(tied, tiedAtKth(t, s, multi))
				rb, err := BruteForce(ctx, s, one)
				if err != nil {
					t.Fatal(err)
				}
				if rb.Iterations == 0 {
					if i != ra.Iterations {
						t.Fatalf("brute force stopped after %d iterations, accelerated ran %d", i, ra.Iterations)
					}
					break
				}
				if i >= ra.Iterations {
					t.Fatalf("accelerated stopped after %d iterations, brute force ran on", ra.Iterations)
				}
				b, a := rb.Records[0], ra.Records[i]
				if !slices.Equal(b.Gates, a.Gates) ||
					math.Float64bits(b.Sensitivity) != math.Float64bits(a.Sensitivity) ||
					math.Float64bits(b.Objective) != math.Float64bits(a.Objective) {
					t.Fatalf("iter %d: brute force sized %v (sens %x, obj %x), accelerated %v (sens %x, obj %x)",
						i, b.Gates, b.Sensitivity, b.Objective, a.Gates, a.Sensitivity, a.Objective)
				}
			}
			t.Logf("candidates tied at the k-th best improvement, per iteration: %v", tied)
			if slices.Max(tied) < 2 {
				t.Errorf("no iteration had two candidates tied at the k-th best improvement; the tie rule went untested")
			}
		})
	}
}

// tiedAtKth evaluates every candidate at one width step up in one
// what-if batch and returns how many share the k-th best improvement
// bit for bit.
func tiedAtKth(t *testing.T, s *session.Session, k int) int {
	t.Helper()
	var deltas []float64
	err := s.Do(func(tx *session.Tx) error {
		d := tx.Design()
		var cands []session.Candidate
		for _, g := range candidateGates(d) {
			cands = append(cands, session.Candidate{Gate: g, Width: d.Width(g) + d.Lib.DeltaW})
		}
		res, err := tx.WhatIfBatch(context.Background(), cands)
		for _, r := range res {
			deltas = append(deltas, r.Delta)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(deltas)
	slices.Reverse(deltas)
	if len(deltas) < k {
		return 0
	}
	n := 0
	for _, d := range deltas {
		if math.Float64bits(d) == math.Float64bits(deltas[k-1]) {
			n++
		}
	}
	return n
}
