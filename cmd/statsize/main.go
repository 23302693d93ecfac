// Command statsize sizes a single circuit with any of the optimizers
// and reports the timing before and after, optionally dumping a
// per-iteration trace and validating with Monte Carlo. The run drives
// an incremental timing session: width commits re-propagate only the
// perturbed region of the timing graph, and the session accounting
// (nodes recomputed versus a full SSTA pass) is reported at the end.
// Ctrl-C cancels the run and reports the partial trace sized so far.
//
// Usage:
//
//	statsize -circuit c432 -optimizer accelerated -iters 100
//	statsize -bench mydesign.bench -optimizer brute-force -iters 20 -trace
//	statsize -circuit c880 -optimizer deterministic -area-cap 0.25
//	statsize -circuit c432 -whatif 10
//	statsize -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"

	"statsize"
	"statsize/internal/report"
)

func main() {
	circuit := flag.String("circuit", "", "benchmark name (c17, c432 .. c7552)")
	bench := flag.String("bench", "", "path to an ISCAS .bench netlist (alternative to -circuit)")
	optimizer := flag.String("optimizer", "accelerated", "optimizer name (see -list)")
	list := flag.Bool("list", false, "list the optimizer names and exit")
	iters := flag.Int("iters", 100, "maximum sizing iterations")
	bins := flag.Int("bins", 600, "SSTA grid bins")
	areaCap := flag.Float64("area-cap", 0, "stop after this relative area increase (0.25 = +25%)")
	percentile := flag.Float64("p", 0.99, "objective percentile")
	multi := flag.Int("multi", 1, "gates sized per iteration")
	heuristic := flag.Int("heuristic-levels", 0, "approximate mode: stop fronts after N levels")
	trace := flag.Bool("trace", false, "print a per-iteration trace table")
	whatif := flag.Int("whatif", 0, "before optimizing, rank the top N gates by exact what-if sensitivity")
	mcSamples := flag.Int("mc", 0, "validate the result with N Monte Carlo samples")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(statsize.Optimizers(), "\n"))
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Stdout, *circuit, *bench, *optimizer, *iters, *bins, *areaCap, *percentile,
		*multi, *heuristic, *trace, *whatif, *mcSamples); err != nil {
		fmt.Fprintln(os.Stderr, "statsize:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, circuit, bench, optimizer string, iters, bins int,
	areaCap, percentile float64, multi, heuristic int, trace bool, whatif, mcSamples int) error {
	eng, err := statsize.New(
		statsize.WithBins(bins),
		statsize.WithObjective(statsize.Percentile(percentile)),
	)
	if err != nil {
		return err
	}

	var d *statsize.Design
	switch {
	case circuit != "" && bench != "":
		return fmt.Errorf("use either -circuit or -bench, not both")
	case circuit != "":
		d, err = eng.Benchmark(circuit)
	case bench != "":
		var f *os.File
		f, err = os.Open(bench)
		if err == nil {
			defer f.Close()
			d, err = eng.LoadBench(f, bench)
		}
	default:
		return fmt.Errorf("one of -circuit or -bench is required")
	}
	if err != nil {
		return err
	}

	nominal := eng.AnalyzeSTA(d).CircuitDelay()
	fmt.Fprintf(w, "circuit: %v\n", d.NL)
	fmt.Fprintf(w, "nominal delay (min size): %.4f ns\n", nominal)

	// One session serves the what-if ranking and the optimizer run: the
	// initial SSTA pass is paid once, everything after is incremental.
	s, err := eng.Open(ctx, d)
	if err != nil {
		return err
	}
	defer s.Close()

	if whatif > 0 {
		if err := rankWhatIf(ctx, w, s, whatif); err != nil {
			return err
		}
	}

	res, err := eng.OptimizeSession(ctx, s, optimizer,
		statsize.MaxIterations(iters),
		statsize.MaxAreaIncrease(areaCap),
		statsize.MultiSize(multi),
		statsize.HeuristicLevels(heuristic),
	)
	canceled := errors.Is(err, context.Canceled) && res != nil
	if canceled {
		fmt.Fprintf(w, "canceled; reporting the partial run\n")
	} else if err != nil {
		return err
	}

	fmt.Fprintf(w, "optimizer: %s, %d iterations in %v\n", res.Method, res.Iterations, res.Elapsed.Round(1000000))
	// The deterministic sizer minimizes the nominal delay, not the
	// session objective, and its Result reports that delay.
	objective, err := s.ObjectiveName()
	if err != nil {
		return err
	}
	if res.Method == "deterministic" {
		objective = "nominal delay"
	}
	fmt.Fprintf(w, "objective (%s): %.4f -> %.4f ns  (%.2f%% improvement)\n",
		objective, res.InitialObjective, res.FinalObjective, res.Improvement())
	fmt.Fprintf(w, "total gate size: %.1f -> %.1f  (+%.1f%%)\n",
		res.InitialWidth, res.FinalWidth, res.AreaIncrease())
	if st, err := s.Stats(); err == nil && st.Resizes > 0 {
		fmt.Fprintf(w, "incremental commits: %d resizes touching %.0f nodes each on average (full SSTA pass = %d nodes)\n",
			st.Resizes, float64(st.NodesRecomputed)/float64(st.Resizes), st.TotalNodes)
	}

	if trace && len(res.Records) > 0 {
		t := report.NewTable("per-iteration trace",
			"iter", "gate", "sensitivity", "objective (ns)", "area", "pruned/considered", "ms")
		for _, r := range res.Records {
			t.AddRowStrings(
				fmt.Sprint(r.Iter),
				fmt.Sprint(r.Gates),
				fmt.Sprintf("%.5g", r.Sensitivity),
				fmt.Sprintf("%.4f", r.Objective),
				fmt.Sprintf("%.1f", r.TotalWidth),
				fmt.Sprintf("%d/%d", r.CandidatesPruned, r.CandidatesConsidered),
				fmt.Sprintf("%.1f", float64(r.Elapsed.Microseconds())/1000),
			)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}

	if mcSamples > 0 && !canceled {
		mc, err := eng.MonteCarlo(ctx, res.Design, mcSamples, 1)
		if err != nil {
			return err
		}
		bound, err := s.Percentile(percentile)
		if err != nil {
			return err
		}
		p := mc.Percentile(percentile)
		fmt.Fprintf(w, "Monte Carlo p%g (%d samples): %.4f ns (bound error %+.2f%%)\n",
			percentile*100, mcSamples, p, 100*(bound-p)/p)
	}
	return nil
}

// rankWhatIf evaluates the exact objective sensitivity of one width
// step for every candidate gate — one WhatIfBatch call fans the whole
// sweep out across the engine's worker pool under a single session
// lock acquisition — and prints the top n.
func rankWhatIf(ctx context.Context, w io.Writer, s *statsize.Session, n int) error {
	numGates, err := s.NumGates()
	if err != nil {
		return err
	}
	cands := make([]statsize.Candidate, 0, numGates)
	for g := 0; g < numGates; g++ {
		gid := statsize.GateID(g)
		w, err := s.Width(gid)
		if err != nil {
			return err
		}
		cands = append(cands, statsize.Candidate{Gate: gid, Width: w + 0.5})
	}
	results, err := s.WhatIfBatch(ctx, cands)
	if err != nil {
		return err
	}
	type row struct {
		gate statsize.GateID
		r    statsize.WhatIfResult
	}
	var rows []row
	for i, r := range results {
		if r.Sensitivity > 0 {
			rows = append(rows, row{cands[i].Gate, r})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].r.Sensitivity != rows[j].r.Sensitivity {
			return rows[i].r.Sensitivity > rows[j].r.Sensitivity
		}
		return rows[i].gate < rows[j].gate
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	t := report.NewTable("what-if ranking (uncommitted, exact)",
		"gate", "sensitivity", "objective if sized (ns)", "nodes touched")
	for _, r := range rows {
		t.AddRowStrings(
			fmt.Sprint(r.gate),
			fmt.Sprintf("%.5g", r.r.Sensitivity),
			fmt.Sprintf("%.4f", r.r.Objective),
			fmt.Sprint(r.r.NodesVisited),
		)
	}
	return t.Render(w)
}
