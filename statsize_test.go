package statsize

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestBenchmarkC17(t *testing.T) {
	d, err := newEngine(t).Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	if d.NL.NumGates() != 6 {
		t.Errorf("c17 has %d gates, want 6", d.NL.NumGates())
	}
}

func TestBenchmarkSuite(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 10 {
		t.Fatalf("suite has %d circuits", len(names))
	}
	eng := newEngine(t)
	d, err := eng.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	if d.NL.TimingNodeCount() != 214 {
		t.Error("c432 node count mismatch")
	}
	if _, err := eng.Benchmark("c9999"); err == nil {
		t.Error("expected unknown-circuit error")
	} else if !strings.Contains(err.Error(), "c9999") {
		t.Error("error should name the circuit")
	}
}

func TestEndToEndQuickstart(t *testing.T) {
	eng := newEngine(t)
	ctx := context.Background()
	d, err := eng.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	det := eng.AnalyzeSTA(d)
	if det.CircuitDelay() <= 0 {
		t.Fatal("bad nominal delay")
	}
	a, err := eng.AnalyzeSSTA(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	p99 := a.Percentile(0.99)
	if p99 <= det.CircuitDelay() {
		t.Error("p99 should exceed nominal delay")
	}
	widthBefore := d.TotalWidth()
	res, err := eng.Optimize(ctx, d, "accelerated", MaxIterations(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalObjective >= res.InitialObjective {
		t.Error("optimization did not improve p99")
	}
	// The optimizer works on a clone: the caller's design is untouched
	// and the sized design is Result.Design.
	if d.TotalWidth() != widthBefore {
		t.Error("Optimize mutated the caller's design")
	}
	if res.Design == nil || res.Design.TotalWidth() <= widthBefore {
		t.Fatal("Result.Design does not carry the sized clone")
	}
	mc, err := eng.MonteCarlo(ctx, res.Design, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(mc.Percentile(0.99)-res.FinalObjective) / res.FinalObjective; rel > 0.05 {
		t.Errorf("MC and bound diverge by %.1f%%", rel*100)
	}
}

func TestLoadBenchFacade(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n"
	d, err := newEngine(t).LoadBench(strings.NewReader(src), "mini")
	if err != nil {
		t.Fatal(err)
	}
	if d.NL.NumGates() != 1 {
		t.Error("mini netlist wrong")
	}
	h := PathHistogram(d, 0.001)
	if h.NumPaths() != 2 {
		t.Errorf("mini has %v paths, want 2", h.NumPaths())
	}
}

func TestGenerateCircuitFacade(t *testing.T) {
	d, err := newEngine(t).GenerateCircuit(CircuitSpec{
		Name: "custom", Nodes: 50, Edges: 88, PIs: 7, POs: 4, Depth: 7, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.NL.TimingNodeCount() != 50 || d.NL.TimingEdgeCount() != 88 {
		t.Error("custom spec counts not honored")
	}
}
