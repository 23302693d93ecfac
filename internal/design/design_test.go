package design

import (
	"math"
	"slices"
	"strings"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/graph"
	"statsize/internal/netlist"
)

var lib = cell.Default180nm()

func c17Design(t *testing.T) *Design {
	t.Helper()
	d, err := New(netlist.C17(lib), lib)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewStartsAtMinWidth(t *testing.T) {
	d := c17Design(t)
	for g := 0; g < d.NL.NumGates(); g++ {
		if d.Width(netlist.GateID(g)) != lib.WMin {
			t.Fatalf("gate %d width %v, want WMin", g, d.Width(netlist.GateID(g)))
		}
	}
	if math.Abs(d.TotalWidth()-float64(d.NL.NumGates())*lib.WMin) > 1e-12 {
		t.Error("total width mismatch at min size")
	}
}

func TestLoadAccounting(t *testing.T) {
	d := c17Design(t)
	// Net 11 feeds gates 16 and 19 (both NAND2): wire cap for fanout 2
	// plus two NAND2 pins at min width.
	n11, _ := d.NL.NetByName("11")
	want := lib.WireCap(2) + 2*lib.InputCap(cell.NAND2, lib.WMin)
	if math.Abs(d.Load(n11)-want) > 1e-12 {
		t.Errorf("load(11) = %v, want %v", d.Load(n11), want)
	}
	// Net 22 is a PO with no readers: wire cap fanout 0 + PO load.
	n22, _ := d.NL.NetByName("22")
	want22 := lib.WireCap(0) + lib.POLoad
	if math.Abs(d.Load(n22)-want22) > 1e-12 {
		t.Errorf("load(22) = %v, want %v", d.Load(n22), want22)
	}
}

func TestSetWidthUpdatesFaninLoads(t *testing.T) {
	d := c17Design(t)
	n16, _ := d.NL.NetByName("16")
	g22 := d.NL.Driver(mustNet(t, d, "22")) // NAND(10, 16)
	before := d.Load(n16)
	d.SetWidth(g22, 3.0)
	after := d.Load(n16)
	wantDelta := lib.InputCap(cell.NAND2, 3.0) - lib.InputCap(cell.NAND2, lib.WMin)
	if math.Abs((after-before)-wantDelta) > 1e-12 {
		t.Errorf("fanin load delta %v, want %v", after-before, wantDelta)
	}
	if err := d.RecomputeLoads(1e-9); err != nil {
		t.Error(err)
	}
	if math.Abs(d.TotalWidth()-(float64(d.NL.NumGates()-1)*lib.WMin+3.0)) > 1e-12 {
		t.Error("total width not updated")
	}
}

func TestSetWidthClamps(t *testing.T) {
	d := c17Design(t)
	if w := d.SetWidth(0, 1e9); w != lib.WMax {
		t.Errorf("clamped width %v, want WMax", w)
	}
	if w := d.SetWidth(0, 0); w != lib.WMin {
		t.Errorf("clamped width %v, want WMin", w)
	}
	if err := d.RecomputeLoads(1e-9); err != nil {
		t.Error(err)
	}
}

func TestManyResizesStayConsistent(t *testing.T) {
	d := c17Design(t)
	widths := []float64{1, 2.5, 7, 1.5, 4, 32, 1}
	for i, w := range widths {
		d.SetWidth(netlist.GateID(i%d.NL.NumGates()), w)
	}
	if err := d.RecomputeLoads(1e-9); err != nil {
		t.Error(err)
	}
}

func TestDuplicateInputPinLoads(t *testing.T) {
	// A gate wired to the same net on both pins must load it twice.
	src := "INPUT(a)\nOUTPUT(z)\nb = NOT(a)\nz = NAND(b, b)\n"
	nl, err := netlist.ParseBench(strings.NewReader(src), "dup", lib)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := nl.NetByName("b")
	want := lib.WireCap(2) + 2*lib.InputCap(cell.NAND2, lib.WMin)
	if math.Abs(d.Load(b)-want) > 1e-12 {
		t.Errorf("duplicate-pin load %v, want %v", d.Load(b), want)
	}
	z, _ := nl.NetByName("z")
	d.SetWidth(nl.Driver(z), 4)
	if err := d.RecomputeLoads(1e-9); err != nil {
		t.Error(err)
	}
}

func TestAffectedGates(t *testing.T) {
	d := c17Design(t)
	// Gate driving net 22 = NAND(10, 16): affected set is itself plus
	// the drivers of nets 10 and 16.
	x := d.NL.Driver(mustNet(t, d, "22"))
	got := slices.Collect(d.AffectedGates(x))
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
	solo := slices.Collect(d.AffectedGates(d.NL.Driver(mustNet(t, d, "10"))))
	if len(solo) != 1 {
		t.Errorf("PI-fed gate affected set %v, want just itself", solo)
	}
	// A driver wired to both pins of the resized gate is yielded once.
	nl, err := netlist.ParseBench(strings.NewReader("INPUT(a)\nOUTPUT(z)\nb = NOT(a)\nz = NAND(b, b)\n"), "dup", lib)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := New(nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	z := nl.Driver(mustNet(t, dup, "z"))
	if got, want := slices.Collect(dup.AffectedGates(z)), []netlist.GateID{z, nl.Driver(mustNet(t, dup, "b"))}; !slices.Equal(got, want) {
		t.Errorf("duplicate-pin affected set %v, want %v", got, want)
	}
}

func TestEdgeDelays(t *testing.T) {
	d := c17Design(t)
	g := d.E.G
	for e := 0; e < g.NumEdges(); e++ {
		eid := graph.EdgeID(e)
		nom := d.EdgeNominalDelay(eid)
		if d.E.EdgeGate[eid] == netlist.NoGate {
			if nom != 0 {
				t.Errorf("source/sink arc %d has delay %v", e, nom)
			}
			dd, err := d.EdgeDelayDist(0.001, eid)
			if err != nil || dd != nil {
				t.Errorf("source/sink arc %d dist = %v, %v", e, dd, err)
			}
			continue
		}
		if nom <= 0 {
			t.Errorf("edge %d nominal delay %v", e, nom)
		}
		dd, err := d.EdgeDelayDist(0.001, eid)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dd.Mean()-nom) > 1e-6 {
			t.Errorf("edge %d dist mean %v, want %v", e, dd.Mean(), nom)
		}
	}
}

func TestUpsizingSpeedsGateSlowsFanin(t *testing.T) {
	d := c17Design(t)
	// Gate driving 22 reads nets 10 and 16; upsizing it must reduce its
	// own edge delays and increase the delay of edges into nets 10/16.
	g22 := d.NL.Driver(mustNet(t, d, "22"))
	ownEdge := d.E.GateEdges[g22][0]
	n10 := mustNet(t, d, "10")
	faninGate := d.NL.Driver(n10)
	faninEdge := d.E.GateEdges[faninGate][0]
	ownBefore := d.EdgeNominalDelay(ownEdge)
	faninBefore := d.EdgeNominalDelay(faninEdge)
	d.SetWidth(g22, 4)
	if own := d.EdgeNominalDelay(ownEdge); own >= ownBefore {
		t.Errorf("upsized gate delay %v, want < %v", own, ownBefore)
	}
	if fanin := d.EdgeNominalDelay(faninEdge); fanin <= faninBefore {
		t.Errorf("fanin delay %v, want > %v (loading effect)", fanin, faninBefore)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := c17Design(t)
	c := d.Clone()
	c.SetWidth(0, 8)
	if d.Width(0) != lib.WMin {
		t.Error("clone mutation leaked into original")
	}
	if err := d.RecomputeLoads(1e-9); err != nil {
		t.Error(err)
	}
	if err := c.RecomputeLoads(1e-9); err != nil {
		t.Error(err)
	}
}

func TestSuggestDT(t *testing.T) {
	d := c17Design(t)
	dt := d.SuggestDT(600)
	if dt <= 0 {
		t.Fatalf("dt = %v", dt)
	}
	// c17 is 3 gate levels; nominal circuit delay is a few hundred ps, so
	// 600 bins should put dt well under a picosecond-scale gate delay.
	if dt > 0.01 {
		t.Errorf("dt = %v ns seems too coarse for c17", dt)
	}
}

func mustNet(t *testing.T, d *Design, name string) netlist.NetID {
	t.Helper()
	n, ok := d.NL.NetByName(name)
	if !ok {
		t.Fatalf("net %q missing", name)
	}
	return n
}
