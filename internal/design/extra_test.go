package design

import (
	"math"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/graph"
	"statsize/internal/netlist"
)

func TestNewRejectsInvalidLibrary(t *testing.T) {
	lib := cell.Default180nm()
	lib.SigmaRatio = 2 // invalid
	if _, err := New(netlist.C17(cell.Default180nm()), lib); err == nil {
		t.Error("expected library validation error")
	}
}

func TestNewRejectsUnfinalizedNetlist(t *testing.T) {
	nl := netlist.New("raw")
	if _, err := nl.AddPI("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := New(nl, cell.Default180nm()); err == nil {
		t.Error("expected elaboration error for unfinalized netlist")
	}
}

func TestSuggestDTPanicsOnBadBins(t *testing.T) {
	d := c17Design(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.SuggestDT(0)
}

func TestRecomputeLoadsDetectsDrift(t *testing.T) {
	d := c17Design(t)
	// Corrupt a cached load and verify the self-check notices.
	d.loads[0] += 1
	if err := d.RecomputeLoads(1e-9); err == nil {
		t.Error("expected drift detection")
	}
}

func TestSetWidthNoOp(t *testing.T) {
	d := c17Design(t)
	before := d.TotalWidth()
	d.SetWidth(0, d.Width(0)) // same width: no-op
	if d.TotalWidth() != before {
		t.Error("no-op resize changed total width")
	}
	if err := d.RecomputeLoads(1e-12); err != nil {
		t.Error(err)
	}
}

func TestEdgeNominalDelayFinite(t *testing.T) {
	d := c17Design(t)
	for e := 0; e < d.E.G.NumEdges(); e++ {
		v := d.EdgeNominalDelay(graph.EdgeID(e))
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("edge %d delay %v", e, v)
		}
	}
}
