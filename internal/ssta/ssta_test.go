package ssta

import (
	"context"
	"math"
	"strings"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/montecarlo"
	"statsize/internal/netlist"
	"statsize/internal/sta"
)

func newDesign(t *testing.T, name string) *design.Design {
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

func analyze(t *testing.T, d *design.Design, bins int) *Analysis {
	t.Helper()
	a, err := Analyze(context.Background(), d, d.SuggestDT(bins))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDegenerateSigmaMatchesSTA(t *testing.T) {
	lib := cell.Default180nm()
	lib.SigmaRatio = 0 // point-mass delays
	nl := netlist.C17(lib)
	d, err := design.New(nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	det := sta.Analyze(d).CircuitDelay()
	a, err := Analyze(context.Background(), d, det/2000)
	if err != nil {
		t.Fatal(err)
	}
	// Point masses smear by up to a bin per convolution; with 2000 bins
	// over the circuit delay and ~5 levels the mean stays within a few
	// bins of the deterministic delay.
	if diff := math.Abs(a.SinkDist().Mean() - det); diff > 5*a.DT {
		t.Errorf("degenerate SSTA mean %v vs STA %v (diff %v)", a.SinkDist().Mean(), det, diff)
	}
	if diff := math.Abs(a.Percentile(0.5) - det); diff > 10*a.DT {
		t.Errorf("degenerate SSTA median %v vs STA %v", a.Percentile(0.5), det)
	}
}

func TestSinkDominatesDeterministicLowerBound(t *testing.T) {
	// With symmetric truncated-Gaussian edge delays, the statistical
	// circuit delay mean exceeds the nominal deterministic delay (max of
	// random variables is super-additive) and the sink spread is positive.
	d := newDesign(t, "c432")
	det := sta.Analyze(d).CircuitDelay()
	a := analyze(t, d, 600)
	if a.SinkDist().Mean() < det*0.98 {
		t.Errorf("statistical mean %v below nominal delay %v", a.SinkDist().Mean(), det)
	}
	if a.Percentile(0.99) <= a.Percentile(0.5) {
		t.Error("99th percentile must exceed median")
	}
}

// buildChain returns a reconvergence-free chain of inverters: SSTA is
// exact on trees, so Monte Carlo must agree tightly.
func buildChain(t *testing.T, n int) *design.Design {
	t.Helper()
	lib := cell.Default180nm()
	var b strings.Builder
	b.WriteString("INPUT(a)\nOUTPUT(z)\n")
	prev := "a"
	for i := 0; i < n; i++ {
		name := "z"
		if i < n-1 {
			name = "n" + string(rune('a'+i))
		}
		b.WriteString(name + " = NOT(" + prev + ")\n")
		prev = name
	}
	nl, err := netlist.ParseBench(strings.NewReader(b.String()), "chain", lib)
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.New(nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestChainMatchesMonteCarlo(t *testing.T) {
	d := buildChain(t, 12)
	a := analyze(t, d, 1500)
	mc, err := montecarlo.Run(context.Background(), d, 40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		got, want := a.Percentile(p), mc.Percentile(p)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("chain p%v: SSTA %v vs MC %v (%.2f%%)", p, got, want, rel*100)
		}
	}
	if rel := math.Abs(a.SinkDist().Mean()-mc.Mean()) / mc.Mean(); rel > 0.01 {
		t.Errorf("chain mean: SSTA %v vs MC %v", a.SinkDist().Mean(), mc.Mean())
	}
}

func TestBoundIsConservativeOnReconvergentCircuit(t *testing.T) {
	// On reconvergent circuits the independence assumption yields an
	// upper bound on the delay CDF: SSTA percentiles sit at or above the
	// exact (Monte Carlo) ones, up to sampling noise.
	d := newDesign(t, "c432")
	a := analyze(t, d, 600)
	mc, err := montecarlo.Run(context.Background(), d, 20000, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		got, want := a.Percentile(p), mc.Percentile(p)
		if got < want*(1-0.005) {
			t.Errorf("p%v: SSTA bound %v below MC %v", p, got, want)
		}
		// Section 4 of the paper: the bound is tight (about 1% at p99).
		if got > want*1.05 {
			t.Errorf("p%v: SSTA bound %v too loose vs MC %v", p, got, want)
		}
	}
}

// TestResizeCommitMatchesFullReanalysis: commits through one reused
// Scratch, with a what-if between them, leave every arrival
// bit-identical to a fresh full pass. Each use of the scratch rewinds
// its arena and overwrites it, so an arrival a commit stored without
// persisting it would read back the what-if's values here.
func TestResizeCommitMatchesFullReanalysis(t *testing.T) {
	ctx := context.Background()
	d := newDesign(t, "c432")
	a := analyze(t, d, 400)
	g := d.E.G
	sc := NewScratch()
	// Resize a handful of gates spread across the circuit.
	gates := []netlist.GateID{0, 5, 17, 42, 99}
	for i, gid := range gates {
		d.SetWidth(gid, d.Width(gid)+d.Lib.DeltaW)
		n, err := a.ResizeCommit(ctx, gid, sc)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("gate %d: nothing recomputed", gid)
		}
		if n >= g.NumNodes() {
			t.Errorf("gate %d: incremental recompute touched every node", gid)
		}
		next := gates[(i+1)%len(gates)]
		if _, _, err := a.WhatIf(ctx, next, d.Width(next)+2*d.Lib.DeltaW, sc); err != nil {
			t.Fatal(err)
		}
		full, err := AnalyzeParallel(ctx, d, a.DT, 2)
		if err != nil {
			t.Fatal(err)
		}
		for node := range graph.NodeID(g.NumNodes()) {
			if !dist.ApproxEqual(a.Arrival(node), full.Arrival(node), 0) {
				t.Fatalf("gate %d: arrival at node %d diverged from a full pass after an incremental commit", gid, node)
			}
		}
	}
}

func TestOverlayFallsBackToBase(t *testing.T) {
	// All-nil overlays, and a scratch never sized, must reproduce the
	// base analysis exactly.
	d := newDesign(t, "c17")
	a := analyze(t, d, 800)
	g := d.E.G
	unsized, sized := NewScratch(), NewScratch()
	a.Overlays(sized)
	for _, n := range g.Topo() {
		if n == g.Source() {
			continue
		}
		for _, sc := range []*Scratch{unsized, sized} {
			re := a.ArrivalWithOverlayInto(n, sc)
			if !dist.ApproxEqual(re, a.Arrival(n), 0) {
				t.Fatalf("overlay recompute differs from base at node %d", n)
			}
		}
	}
}

func TestOverlaySubstitutesPerturbedDelay(t *testing.T) {
	// Substituting a faster delay on one edge must shift that node's
	// arrival earlier (or leave it unchanged if another fanin dominates).
	d := newDesign(t, "c17")
	a := analyze(t, d, 800)
	g := d.E.G
	n22, _ := d.NL.NetByName("22")
	node := d.E.NodeOf[n22]
	eid := g.In(node)[0]
	faster := a.EdgeDelay(eid).ShiftBins(-5)
	sc := NewScratch()
	_, delay := a.Overlays(sc)
	delay[eid] = faster
	perturbed := a.ArrivalWithOverlayInto(node, sc)
	gap := dist.MaxPercentileGap(a.Arrival(node), perturbed)
	if gap < 0 || gap > 5*a.DT+1e-9 {
		t.Errorf("perturbed arrival gap %v outside [0, 5 bins]", gap)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	d := newDesign(t, "c17")
	if _, err := Analyze(context.Background(), d, 0); err == nil {
		t.Error("expected error for dt=0")
	}
	if _, err := Analyze(context.Background(), d, -1); err == nil {
		t.Error("expected error for negative dt")
	}
}

func TestAffectedGates(t *testing.T) {
	d := newDesign(t, "c17")
	// Gate driving net 22 = NAND(10, 16): affected set is itself plus
	// the drivers of nets 10 and 16.
	n22, _ := d.NL.NetByName("22")
	x := d.NL.Driver(n22)
	got := AffectedGates(d, x)
	want := map[netlist.GateID]bool{x: true}
	for _, in := range d.NL.Gate(x).Ins {
		want[d.NL.Driver(in)] = true
	}
	if len(got) != len(want) {
		t.Fatalf("affected gates %v, want %d entries", got, len(want))
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected affected gate %d", g)
		}
	}
	// A gate fed directly by PIs is affected alone.
	n10, _ := d.NL.NetByName("10")
	solo := AffectedGates(d, d.NL.Driver(n10))
	if len(solo) != 1 {
		t.Errorf("PI-fed gate affected set %v, want just itself", solo)
	}
}

// TestZeroFaninDiagnostic pins the defensive contract of the forward
// pass: a node with no fanin edges (only possible through a
// disconnected or malformed elaboration — graph validation rejects such
// topologies, but the analysis must not rely on that) yields a
// diagnostic error instead of a nil arrival that would nil-deref much
// later inside dist.Convolve or SinkDist. The source node is the one
// legitimately fanin-free node, so it exercises the guard directly.
func TestZeroFaninDiagnostic(t *testing.T) {
	d := newDesign(t, "c17")
	a := analyze(t, d, 400)
	src := d.E.G.Source()
	if arr, err := a.arrivalOrErr(src, nil); err == nil || arr != nil {
		t.Fatalf("zero-fanin node: arrival %v, err %v — want nil arrival with diagnostic error", arr, err)
	} else if !strings.Contains(err.Error(), "no fanin edges") {
		t.Errorf("diagnostic %q does not name the zero-fanin condition", err)
	}
}

// TestAnalyzeParallelDeterminism: the level-parallel forward pass must
// be bit-identical to the serial reference at every worker count —
// every edge-delay distribution and every arrival, not just the sink.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"c17", "c432", "c1908"} {
		t.Run(name, func(t *testing.T) {
			d := newDesign(t, name)
			dt := d.SuggestDT(400)
			serial, err := AnalyzeParallel(ctx, d, dt, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				parallel, err := AnalyzeParallel(ctx, d, dt, workers)
				if err != nil {
					t.Fatal(err)
				}
				g := d.E.G
				for e := 0; e < g.NumEdges(); e++ {
					se, pe := serial.EdgeDelay(graph.EdgeID(e)), parallel.EdgeDelay(graph.EdgeID(e))
					if (se == nil) != (pe == nil) || (se != nil && !dist.ApproxEqual(se, pe, 0)) {
						t.Fatalf("workers=%d: edge %d delay diverged from serial", workers, e)
					}
				}
				for n := 0; n < g.NumNodes(); n++ {
					if !dist.ApproxEqual(serial.Arrival(graph.NodeID(n)), parallel.Arrival(graph.NodeID(n)), 0) {
						t.Fatalf("workers=%d: arrival at node %d diverged from serial", workers, n)
					}
				}
			}
		})
	}
}

// TestPerturbedDelaysMutationFree: evaluating a candidate's perturbed
// delays must leave the design bit-identical (no width, load or total
// drift) and must match the mutate-evaluate-restore reference (write
// the width with SetWidth, read the delays, Restore a snapshot)
// distribution for distribution.
func TestPerturbedDelaysMutationFree(t *testing.T) {
	d := newDesign(t, "c432")
	a := analyze(t, d, 400)
	for g := 0; g < d.NL.NumGates(); g += 7 {
		gid := netlist.GateID(g)
		w := d.Width(gid) + d.Lib.DeltaW
		widthsBefore := make([]float64, d.NL.NumGates())
		for i := range widthsBefore {
			widthsBefore[i] = d.Width(netlist.GateID(i))
		}
		loadsBefore := make([]float64, d.NL.NumNets())
		for i := range loadsBefore {
			loadsBefore[i] = d.Load(netlist.NetID(i))
		}
		totalBefore := d.TotalWidth()

		got, err := a.PerturbedDelays(gid, w)
		if err != nil {
			t.Fatal(err)
		}

		if d.TotalWidth() != totalBefore {
			t.Fatalf("gate %d: PerturbedDelays changed total width", g)
		}
		for i := range widthsBefore {
			if d.Width(netlist.GateID(i)) != widthsBefore[i] {
				t.Fatalf("gate %d: PerturbedDelays changed width of gate %d", g, i)
			}
		}
		for i := range loadsBefore {
			if d.Load(netlist.NetID(i)) != loadsBefore[i] {
				t.Fatalf("gate %d: PerturbedDelays changed load of net %d", g, i)
			}
		}

		// Reference: mutate, evaluate, restore.
		want := make(map[graph.EdgeID]*dist.Dist)
		pre := d.Snapshot()
		d.SetWidth(gid, w)
		for _, ag := range AffectedGates(d, gid) {
			for _, eid := range d.E.GateEdges[ag] {
				if want[eid], err = d.EdgeDelayDist(a.DT, eid); err != nil {
					t.Fatal(err)
				}
			}
		}
		d.Restore(pre)
		gotByEdge := make(map[graph.EdgeID]*dist.Dist)
		for _, ed := range got {
			gotByEdge[ed.Edge] = ed.Delay
		}
		if len(got) != len(want) || len(gotByEdge) != len(want) {
			t.Fatalf("gate %d: %d perturbed edges (%d distinct), reference has %d", g, len(got), len(gotByEdge), len(want))
		}
		for eid, wd := range want {
			gd, ok := gotByEdge[eid]
			if !ok || !dist.ApproxEqual(gd, wd, 0) {
				t.Fatalf("gate %d edge %d: mutation-free delay diverged from mutate-and-restore reference", g, eid)
			}
		}
	}
}

// TestPropagationRewindsKernelArenaPerNode pins the memory shape of a
// candidate evaluation. The kernel arena holds one node's convolutions
// and maxes at a time; only the arrivals a propagation keeps
// accumulate, copied into the candidate arena. On a large cone the
// kernel arena therefore ends smaller than the candidate arena, where
// without the per-node rewind it would hold every intermediate of the
// cone, several distributions per node. WhatIfFull, which keeps every
// node, has the same shape.
func TestPropagationRewindsKernelArenaPerNode(t *testing.T) {
	d := newDesign(t, "c880")
	a := analyze(t, d, 400)
	ctx := context.Background()
	// The gate with the largest what-if cone among the first few.
	best, most := netlist.GateID(0), 0
	for gi := 0; gi < 40; gi++ {
		gid := netlist.GateID(gi)
		_, visited, err := a.WhatIf(ctx, gid, d.Width(gid)+d.Lib.DeltaW, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if visited > most {
			best, most = gid, visited
		}
	}
	if most < 100 {
		t.Fatalf("largest cone among the first gates visits %d nodes; the test needs a large one", most)
	}
	w := d.Width(best) + d.Lib.DeltaW
	for _, c := range []struct {
		name string
		run  func(sc *Scratch) error
	}{
		{"WhatIf", func(sc *Scratch) error { _, _, err := a.WhatIf(ctx, best, w, sc); return err }},
		{"WhatIfFull", func(sc *Scratch) error { _, _, err := a.WhatIfFull(best, w, sc); return err }},
	} {
		sc := NewScratch()
		if err := c.run(sc); err != nil {
			t.Fatal(err)
		}
		kernel, held := sc.ar.FootprintBytes(), sc.held.FootprintBytes()
		if kernel >= held {
			t.Errorf("%s on gate %d (%d-node cone): kernel arena %d B, candidate arena %d B; the kernel arena should hold one node at a time",
				c.name, best, most, kernel, held)
		}
	}
}
