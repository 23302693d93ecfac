// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus benchmarks of the design choices called out in
// DESIGN.md. Each benchmark runs a scaled-down but shape-preserving
// version of the corresponding experiment; the cmd/ tools run the full
// protocols (see EXPERIMENTS.md for recorded paper-vs-measured results).
//
//	go test -bench=. -benchmem
package statsize

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"statsize/internal/experiments"
	"statsize/internal/ssta"
)

// benchOpts is the scaled-down experiment configuration used by the
// table/figure benchmarks.
func benchOpts(circuits ...string) experiments.Options {
	return experiments.Options{
		Circuits:        circuits,
		Iterations:      6,
		TimedIterations: 2,
		Bins:            400,
		MCSamples:       800,
		TracePoints:     3,
	}
}

// BenchmarkTable1 regenerates Table 1 rows (deterministic vs statistical
// 99-percentile delay at equal area).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(context.Background(), benchOpts("c432"))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 rows (brute force vs accelerated
// per-iteration runtime and pruning rate).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(context.Background(), benchOpts("c432"))
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Factor <= 0 {
			b.Fatal("bad factor")
		}
	}
}

// BenchmarkFigure1 regenerates the path-wall comparison of Figure 1.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(context.Background(), "c432", benchOpts("c432")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the single-step CDF perturbation of
// Figure 2.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(context.Background(), "c432", benchOpts("c432")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates the area-delay curves with Monte Carlo
// validation (the paper plots c3540; the benchmark uses c432 to stay
// fast — cmd/figure10 runs the paper's circuit).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(context.Background(), "c432", benchOpts("c432")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoundsVsMC regenerates the Section 4 accuracy check (SSTA
// bound vs Monte Carlo at the 99th percentile).
func BenchmarkBoundsVsMC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BoundsVsMC(context.Background(), benchOpts("c432", "c880")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSTA measures one full statistical timing analysis pass per
// circuit — the inner building block whose cost Table 2's brute force
// multiplies by the gate count.
func BenchmarkSSTA(b *testing.B) {
	eng := newEngine(b)
	for _, name := range []string{"c432", "c880", "c2670", "c6288"} {
		b.Run(name, func(b *testing.B) {
			d, err := eng.Benchmark(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.AnalyzeSSTA(context.Background(), d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSizingIteration measures one coordinate-descent iteration of
// each statistical optimizer — the per-iteration times behind Table 2.
func BenchmarkSizingIteration(b *testing.B) {
	eng := newEngine(b)
	for _, method := range []struct{ label, opt string }{{"brute", "brute-force"}, {"accel", "accelerated"}} {
		for _, name := range []string{"c432", "c880"} {
			b.Run(fmt.Sprintf("%s/%s", method.label, name), func(b *testing.B) {
				d, err := eng.Benchmark(name)
				if err != nil {
					b.Fatal(err)
				}
				cfg := WithConfig(Config{MaxIterations: 1, Bins: 400})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Optimize(context.Background(), d, method.opt, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGridResolution sweeps the SSTA bin budget — the
// accuracy/runtime knob of the discretized framework.
func BenchmarkGridResolution(b *testing.B) {
	for _, bins := range []int{200, 400, 800, 1600} {
		b.Run(fmt.Sprintf("bins%d", bins), func(b *testing.B) {
			eng := newEngine(b, WithBins(bins))
			d, err := eng.Benchmark("c880")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.AnalyzeSSTA(context.Background(), d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sessionBenchGate picks the mid-level gate with the median structural
// perturbation cone — the representative "mid-circuit resize" the
// incremental-commit benchmarks exercise.
func sessionBenchGate(b *testing.B, d *Design) (GateID, int) {
	b.Helper()
	g := d.E.G
	lo, hi := g.MaxLevel()*2/5, g.MaxLevel()*3/5
	type cand struct {
		gate GateID
		cone int
	}
	var cands []cand
	for gi := 0; gi < d.NL.NumGates(); gi++ {
		lvl := g.Level(d.E.NodeOf[d.NL.Gate(GateID(gi)).Out])
		if lvl < lo || lvl > hi {
			continue
		}
		cands = append(cands, cand{GateID(gi), len(resizeCone(d, GateID(gi)))})
	}
	if len(cands) == 0 {
		b.Fatal("no mid-level gates")
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].cone < cands[j].cone })
	mid := cands[len(cands)/2]
	return mid.gate, mid.cone
}

// BenchmarkSessionResize measures one incremental session commit for a
// mid-circuit resize: wall time plus the nodes actually recomputed,
// against the full-pass node count. Pair with BenchmarkFullReanalyze
// for the incremental-commit win the Session API exists to deliver.
func BenchmarkSessionResize(b *testing.B) {
	for _, name := range []string{"c880", "c1908"} {
		b.Run(name, func(b *testing.B) {
			eng, err := New()
			if err != nil {
				b.Fatal(err)
			}
			d, err := eng.Benchmark(name)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			s, err := eng.Open(ctx, d)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			gate, _ := sessionBenchGate(b, d)
			w, err := s.Width(gate)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Toggle between two widths so every iteration commits a
				// real perturbation.
				next := w + 0.5
				if i%2 == 1 {
					next = w
				}
				if _, err := s.Resize(ctx, gate, next); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st, err := s.Stats()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.NodesRecomputed)/float64(st.Resizes), "nodes/resize")
			b.ReportMetric(100*float64(st.NodesRecomputed)/float64(st.Resizes)/float64(st.TotalNodes), "%full-pass")
		})
	}
}

// BenchmarkFullReanalyze is the baseline BenchmarkSessionResize beats: a
// from-scratch SSTA pass after the same resize, which recomputes every
// node and rebuilds every edge-delay distribution.
func BenchmarkFullReanalyze(b *testing.B) {
	for _, name := range []string{"c880", "c1908"} {
		b.Run(name, func(b *testing.B) {
			eng, err := New()
			if err != nil {
				b.Fatal(err)
			}
			d, err := eng.Benchmark(name)
			if err != nil {
				b.Fatal(err)
			}
			gate, _ := sessionBenchGate(b, d)
			w := d.Width(gate)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := w + 0.5
				if i%2 == 1 {
					next = w
				}
				d.SetWidth(gate, next)
				if _, err := eng.AnalyzeSSTA(context.Background(), d); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(d.E.G.NumNodes()-1), "nodes/resize")
			b.ReportMetric(100, "%full-pass")
		})
	}
}

// BenchmarkMonteCarlo measures the Figure 10 validation cost.
func BenchmarkMonteCarlo(b *testing.B) {
	eng := newEngine(b)
	d, err := eng.Benchmark("c3540")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.MonteCarlo(context.Background(), d, 1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathHistogram measures the exact Figure 1 path-count DP.
func BenchmarkPathHistogram(b *testing.B) {
	eng := newEngine(b)
	d, err := eng.Benchmark("c3540")
	if err != nil {
		b.Fatal(err)
	}
	bin := eng.AnalyzeSTA(d).CircuitDelay() / 150
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := PathHistogram(d, bin); h.NumPaths() <= 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkHeuristicMode measures the paper's future-work heuristic
// (fronts cut off after k levels) against the exact algorithm.
func BenchmarkHeuristicMode(b *testing.B) {
	eng := newEngine(b)
	for _, levels := range []int{0, 2, 4} {
		name := "exact"
		if levels > 0 {
			name = fmt.Sprintf("levels%d", levels)
		}
		b.Run(name, func(b *testing.B) {
			d, err := eng.Benchmark("c880")
			if err != nil {
				b.Fatal(err)
			}
			cfg := WithConfig(Config{MaxIterations: 2, Bins: 400, HeuristicLevels: levels})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Optimize(context.Background(), d, "accelerated", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWhatIfBatch is the acceptance benchmark for the
// mutation-free parallel evaluation path: the serial WhatIf loop versus
// one WhatIfBatch call over the same candidate sweep on c1908. "serial"
// runs the historical one-lock-per-candidate loop on a
// parallelism-1 engine; "batch4" is the acceptance configuration
// (4 workers, expected ≥1.5x over serial); "batch" uses every core.
// The c6288 row is the explore workload's batch: 32 candidates, spread
// evenly over the gates, on a 1600-bin grid, every core. Results are
// bit-identical across all modes — only wall time moves.
func BenchmarkWhatIfBatch(b *testing.B) {
	modes := []struct {
		name    string
		circuit string
		bins    int // 0 keeps the engine default
		cands   int // 0 sweeps every gate
		par     int
		batch   bool
	}{
		{"serial", "c1908", 0, 0, 1, false},
		{"batch4", "c1908", 0, 0, 4, true},
		{"batch", "c1908", 0, 0, 0, true},
		{"batch", "c6288", 1600, 32, 0, true},
	}
	for _, mode := range modes {
		label := mode.name + "/" + mode.circuit
		if mode.bins > 0 {
			label += fmt.Sprintf("/bins%d/cands%d", mode.bins, mode.cands)
		}
		b.Run(label, func(b *testing.B) {
			opts := []Option{WithParallelism(mode.par)}
			if mode.bins > 0 {
				opts = append(opts, WithBins(mode.bins))
			}
			eng, err := New(opts...)
			if err != nil {
				b.Fatal(err)
			}
			d, err := eng.Benchmark(mode.circuit)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			s, err := eng.Open(ctx, d)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			numGates, err := s.NumGates()
			if err != nil {
				b.Fatal(err)
			}
			n := numGates
			if mode.cands > 0 {
				n = mode.cands
			}
			cands := make([]Candidate, 0, n)
			for i := 0; i < n; i++ {
				gid := GateID(i * numGates / n)
				w, err := s.Width(gid)
				if err != nil {
					b.Fatal(err)
				}
				cands = append(cands, Candidate{Gate: gid, Width: w + 0.5})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.batch {
					if _, err := s.WhatIfBatch(ctx, cands); err != nil {
						b.Fatal(err)
					}
				} else {
					for _, c := range cands {
						if _, err := s.WhatIf(ctx, c.Gate, c.Width); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(len(cands)), "candidates/op")
		})
	}
}

// BenchmarkAnalyzeParallel measures the level-parallel full SSTA pass
// against the serial reference — the scaling behind session open.
func BenchmarkAnalyzeParallel(b *testing.B) {
	eng := newEngine(b)
	for _, name := range []string{"c1908", "c6288"} {
		d, err := eng.Benchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		dt := d.SuggestDT(600)
		for _, workers := range []int{1, 4, 0} {
			label := fmt.Sprintf("%s/workers%d", name, workers)
			if workers == 0 {
				label = fmt.Sprintf("%s/workersMax", name)
			}
			b.Run(label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ssta.AnalyzeParallel(context.Background(), d, dt, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
