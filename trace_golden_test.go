package statsize

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/traces golden files from the current implementation")

// formatTrace renders a Result in the golden trace format: every float
// in hex so the comparison is bit-exact.
func formatTrace(circuit, opt string, bins int, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# golden optimizer trace: %s %s (MaxIterations=10 Bins=%d)\n", circuit, opt, bins)
	fmt.Fprintf(&b, "initial %x %x\n", res.InitialObjective, res.InitialWidth)
	for _, r := range res.Records {
		gates := make([]string, len(r.Gates))
		for i, g := range r.Gates {
			gates[i] = fmt.Sprint(g)
		}
		fmt.Fprintf(&b, "iter %d gates=%s sens=%x obj=%x width=%x considered=%d pruned=%d visited=%d\n",
			r.Iter, strings.Join(gates, ","), r.Sensitivity, r.Objective, r.TotalWidth,
			r.CandidatesConsidered, r.CandidatesPruned, r.NodesVisited)
	}
	fmt.Fprintf(&b, "final %x %x\n", res.FinalObjective, res.FinalWidth)
	return b.String()
}

// TestGoldenTraces pins the optimizer trajectories to golden files
// captured from the pre-Session implementation: gate choice per
// iteration, sensitivities, objectives, widths and the candidate /
// pruning / visit counters must be bit-identical for the deterministic,
// brute-force and accelerated strategies on c432, c880 and c1908 (the
// benchmark workhorse of the incremental-timing tests). This is the
// proof that plumbing refactors change the plumbing, not the
// algorithm.
func TestGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("golden traces cover c880/c1908 brute force; skipped with -short")
	}
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, circuit := range []string{"c432", "c880", "c1908"} {
		for _, opt := range []string{"deterministic", "brute-force", "accelerated"} {
			t.Run(circuit+"/"+opt, func(t *testing.T) {
				checkGolden(t, eng, circuit, opt, 400, fmt.Sprintf("%s_%s.txt", circuit, opt))
			})
		}
	}
}

// TestGoldenTracesWideGrid pins accelerated trajectories on grids wider
// than the default budget: c17 at 8192 bins convolves supports of about
// 1200 bins, and c432 runs at 1600 bins, the explore benchmark's grid.
// Both run the same exact convolution kernel as every narrower grid.
func TestGoldenTracesWideGrid(t *testing.T) {
	eng := newEngine(t)
	for _, tc := range []struct {
		circuit string
		bins    int
	}{
		{"c17", 8192},
		{"c432", 1600},
	} {
		t.Run(fmt.Sprintf("%s/bins%d", tc.circuit, tc.bins), func(t *testing.T) {
			checkGolden(t, eng, tc.circuit, "accelerated", tc.bins,
				fmt.Sprintf("%s_accelerated_bins%d.txt", tc.circuit, tc.bins))
		})
	}
}

// checkGolden runs one optimizer for 10 iterations at the given grid and
// compares its trace with testdata/traces/<file> (or rewrites the file
// under -update-golden).
func checkGolden(t *testing.T, eng *Engine, circuit, opt string, bins int, file string) {
	t.Helper()
	d, err := eng.Benchmark(circuit)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Optimize(context.Background(), d, opt,
		WithConfig(Config{MaxIterations: 10, Bins: bins}))
	if err != nil {
		t.Fatal(err)
	}
	got := formatTrace(circuit, opt, bins, res)
	path := filepath.Join("testdata", "traces", file)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("trace diverges from golden %s", traceDiff(got, string(want)))
	}
}

// traceDiff describes where two differing traces first part.
func traceDiff(got, want string) string {
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			return fmt.Sprintf("at line %d:\n got  %q\n want %q",
				i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
		}
	}
	return fmt.Sprintf("(want has %d lines, got %d)", len(wantLines), len(gotLines))
}

// TestAcceleratedTracesIndependentOfWorkers pins the accelerated heap
// loop's determinism across worker counts, which the goldens (run at
// GOMAXPROCS) cannot: the fronts a round steps, and how far each goes,
// depend on the heap alone, so every accelerated variant's trace —
// pruned and visited counts included — is hex-identical at 1, 2 and 3
// workers.
func TestAcceleratedTracesIndependentOfWorkers(t *testing.T) {
	eng := newEngine(t)
	for _, circuit := range []string{"c432", "c880"} {
		for _, opt := range []string{"accelerated", "multi-size", "heuristic-levels"} {
			t.Run(circuit+"/"+opt, func(t *testing.T) {
				d, err := eng.Benchmark(circuit)
				if err != nil {
					t.Fatal(err)
				}
				var serial string
				for _, workers := range []int{1, 2, 3} {
					res, err := eng.Optimize(context.Background(), d, opt,
						WithConfig(Config{MaxIterations: 10, Bins: 400, Parallelism: workers}))
					if err != nil {
						t.Fatal(err)
					}
					got := formatTrace(circuit, opt, 400, res)
					if workers == 1 {
						serial = got
					} else if got != serial {
						t.Errorf("%d workers: trace diverges from 1 worker %s", workers, traceDiff(got, serial))
					}
				}
			})
		}
	}
}
