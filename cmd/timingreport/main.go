// Command timingreport prints a full timing report for one circuit:
// deterministic critical paths, statistical percentiles from three
// engines (discretized SSTA, Gaussian moment propagation, Monte Carlo),
// per-gate criticalities from both Monte Carlo sampling and the
// session's backward required-time pass (statistical slack), and the
// effect of spatial correlation that the paper's bound does not model.
//
// Usage:
//
//	timingreport -circuit c432 [-paths 10] [-samples 8000] [-corr 0.5]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"

	"statsize"
	"statsize/internal/netlist"
	"statsize/internal/report"
)

func main() {
	circuit := flag.String("circuit", "c432", "benchmark name")
	bench := flag.String("bench", "", "path to a .bench netlist (alternative to -circuit)")
	paths := flag.Int("paths", 10, "critical paths to list")
	samples := flag.Int("samples", 8000, "Monte Carlo samples")
	bins := flag.Int("bins", 600, "SSTA grid bins")
	corr := flag.Float64("corr", 0.5, "correlated variance fraction for the spatial-correlation study (0 disables)")
	topCrit := flag.Int("crit", 10, "most critical gates to list")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *circuit, *bench, *paths, *samples, *bins, *corr, *topCrit); err != nil {
		fmt.Fprintln(os.Stderr, "timingreport:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, circuit, bench string, paths, samples, bins int, corr float64, topCrit int) error {
	eng, err := statsize.New(statsize.WithBins(bins))
	if err != nil {
		return err
	}
	var d *statsize.Design
	if bench != "" {
		f, err2 := os.Open(bench)
		if err2 != nil {
			return err2
		}
		defer f.Close()
		d, err = eng.LoadBench(f, bench)
	} else {
		d, err = eng.Benchmark(circuit)
	}
	if err != nil {
		return err
	}
	fmt.Println(d.NL)

	det := eng.AnalyzeSTA(d)
	fmt.Printf("\nnominal circuit delay: %.4f ns\n", det.CircuitDelay())

	// Three statistical views of the same circuit. The discretized SSTA
	// numbers come from an incremental timing session: its one full pass
	// also backs the statistical-slack table further down.
	s, err := eng.Open(ctx, d)
	if err != nil {
		return err
	}
	defer s.Close()
	sink, err := s.SinkDist()
	if err != nil {
		return err
	}
	ga := statsize.AnalyzeGaussian(d)
	mc, err := eng.MonteCarlo(ctx, d, samples, 1)
	if err != nil {
		return err
	}
	t := report.NewTable("\nstatistical circuit delay (ns)",
		"engine", "mean", "p50", "p99")
	t.AddRowStrings("discretized SSTA (paper)",
		fmt.Sprintf("%.4f", sink.Mean()),
		fmt.Sprintf("%.4f", sink.Percentile(0.5)),
		fmt.Sprintf("%.4f", sink.Percentile(0.99)))
	t.AddRowStrings("Gaussian moments (related work)",
		fmt.Sprintf("%.4f", ga.Sink().Mean),
		fmt.Sprintf("%.4f", ga.Percentile(0.5)),
		fmt.Sprintf("%.4f", ga.Percentile(0.99)))
	t.AddRowStrings(fmt.Sprintf("Monte Carlo (%d samples)", samples),
		fmt.Sprintf("%.4f", mc.Mean()),
		fmt.Sprintf("%.4f", mc.Percentile(0.5)),
		fmt.Sprintf("%.4f", mc.Percentile(0.99)))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	// Top nominal paths.
	pt := report.NewTable(fmt.Sprintf("\ntop %d nominal paths", paths),
		"rank", "delay (ns)", "gates")
	for i, p := range statsize.TopPaths(d, paths) {
		pt.AddRowStrings(fmt.Sprint(i+1), fmt.Sprintf("%.4f", p.Delay), pathGates(d, p))
	}
	if err := pt.Render(os.Stdout); err != nil {
		return err
	}

	// Statistical criticality.
	crit, err := eng.Criticality(ctx, d, samples, 2)
	if err != nil {
		return err
	}
	type gc struct {
		gate int
		c    float64
	}
	var ranked []gc
	for g, c := range crit {
		if c > 0 {
			ranked = append(ranked, gc{g, c})
		}
	}
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].c > ranked[i].c || (ranked[j].c == ranked[i].c && ranked[j].gate < ranked[i].gate) {
				ranked[i], ranked[j] = ranked[j], ranked[i]
			}
		}
	}
	if len(ranked) > topCrit {
		ranked = ranked[:topCrit]
	}
	ct := report.NewTable(fmt.Sprintf("\ntop %d statistically critical gates", topCrit),
		"gate", "cell", "output net", "criticality")
	for _, r := range ranked {
		g := d.NL.Gate(netlist.GateID(r.gate))
		ct.AddRowStrings(fmt.Sprint(r.gate), g.Kind.String(), d.NL.NetName(g.Out),
			fmt.Sprintf("%.3f", r.c))
	}
	if err := ct.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("gates with nonzero criticality: %d of %d (why the paper computes sensitivities for all gates)\n",
		len(crit)-countZero(crit), len(crit))

	// The same ranking without sampling: statistical slack from the
	// session's backward required-time pass, measured against the mean
	// circuit delay. P(slack<=0) near 0.5 marks the statistically
	// critical paths.
	if err := s.SetDeadline(sink.Mean()); err != nil {
		return err
	}
	numGates, err := s.NumGates()
	if err != nil {
		return err
	}
	var sranked []gc
	for g := 0; g < numGates; g++ {
		c, err := s.Criticality(ctx, netlist.GateID(g))
		if err != nil {
			return err
		}
		if c > 0 {
			sranked = append(sranked, gc{g, c})
		}
	}
	sort.Slice(sranked, func(i, j int) bool {
		if sranked[i].c != sranked[j].c {
			return sranked[i].c > sranked[j].c
		}
		return sranked[i].gate < sranked[j].gate
	})
	if len(sranked) > topCrit {
		sranked = sranked[:topCrit]
	}
	st := report.NewTable(fmt.Sprintf("\ntop %d gates by statistical slack (no sampling; deadline = mean delay)", topCrit),
		"gate", "cell", "output net", "P(slack<=0)", "mean slack (ns)")
	for _, r := range sranked {
		g := d.NL.Gate(netlist.GateID(r.gate))
		sl, err := s.Slack(ctx, netlist.GateID(r.gate))
		if err != nil {
			return err
		}
		st.AddRowStrings(fmt.Sprint(r.gate), g.Kind.String(), d.NL.NetName(g.Out),
			fmt.Sprintf("%.3f", r.c), fmt.Sprintf("%.4f", sl.Mean()))
	}
	if err := st.Render(os.Stdout); err != nil {
		return err
	}

	// Spatial correlation study.
	if corr > 0 {
		cm := statsize.CorrModel{GlobalFrac: corr * 0.6, RegionFrac: corr * 0.4}
		cmc, err := eng.MonteCarloCorrelated(ctx, d, samples, 3, cm)
		if err != nil {
			return err
		}
		fmt.Printf("\nspatial correlation study (%.0f%% shared variance):\n", corr*100)
		fmt.Printf("  independent MC p99: %.4f ns | correlated MC p99: %.4f ns | SSTA bound: %.4f ns\n",
			mc.Percentile(0.99), cmc.Percentile(0.99), sink.Percentile(0.99))
		fmt.Printf("  correlation widens the tail by %.2f%%; the paper's bound does not model this (Section 2)\n",
			100*(cmc.Percentile(0.99)-mc.Percentile(0.99))/mc.Percentile(0.99))
	}
	return nil
}

// pathGates lists a path's gates as kind:output-net pairs, cut to fit
// the top-paths table.
func pathGates(d *statsize.Design, p statsize.TimingPath) string {
	names := ""
	for _, eid := range p.Edges {
		gid := d.E.EdgeGate[eid]
		if gid == netlist.NoGate {
			continue
		}
		g := d.NL.Gate(gid)
		names += fmt.Sprintf("%s:%s ", g.Kind, d.NL.NetName(g.Out))
	}
	if len(names) > 70 {
		names = names[:67] + "..."
	}
	return names
}

func countZero(xs []float64) int {
	n := 0
	for _, x := range xs {
		if x == 0 {
			n++
		}
	}
	return n
}
