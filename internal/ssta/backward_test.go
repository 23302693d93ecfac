package ssta

import (
	"context"
	"errors"
	"math"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
)

func c17Analysis(t *testing.T) *Analysis {
	t.Helper()
	lib := cell.Default180nm()
	d, err := design.New(netlist.C17(lib), lib)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(context.Background(), d, d.SuggestDT(500))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestComputeRequired(t *testing.T) {
	a := c17Analysis(t)
	ctx := context.Background()
	g := a.D.E.G

	if a.HasRequired() {
		t.Fatal("required pass cached before ComputeRequired")
	}
	if a.Required(g.Sink()) != nil || a.Slack(g.Sink()) != nil {
		t.Fatal("required/slack non-nil before ComputeRequired")
	}

	deadline := a.Percentile(0.99)
	if err := a.ComputeRequired(ctx, dist.Point(a.DT, deadline), NewScratch()); err != nil {
		t.Fatal(err)
	}
	if !a.HasRequired() {
		t.Fatal("required pass not cached")
	}
	if got := a.Deadline().Mean(); math.Abs(got-deadline) > a.DT {
		t.Errorf("deadline %v, want %v", got, deadline)
	}

	// Sink: required is the deadline itself, so slack = deadline -
	// arrival and P(slack <= 0) = P(delay >= deadline) ~ 1 - p.
	sl := a.Slack(g.Sink())
	if math.Abs(sl.Mean()-(deadline-a.SinkDist().Mean())) > 1e-9 {
		t.Errorf("sink slack mean %v, want %v", sl.Mean(), deadline-a.SinkDist().Mean())
	}
	if viol := sl.CDF(0); viol > 0.011+1e-9 {
		t.Errorf("sink violation probability %v, want <= ~0.01 at the p99 deadline", viol)
	}

	// Monotonicity along edges: required at a fanin is at most the
	// fanout's required minus that edge's delay (in the mean, since the
	// fanin min can only lower it).
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.EdgeAt(graph.EdgeID(e))
		rFrom, rTo := a.Required(edge.From), a.Required(edge.To)
		if rFrom == nil || rTo == nil {
			continue
		}
		mean := rTo.Mean()
		if dd := a.EdgeDelay(graph.EdgeID(e)); dd != nil {
			mean -= dd.Mean()
		}
		if rFrom.Mean() > mean+1e-9 {
			t.Fatalf("edge %d: required mean %v at fanin exceeds fanout bound %v",
				e, rFrom.Mean(), mean)
		}
	}

	// Every gate output has a slack distribution, and at least one gate
	// is near-critical (little slack mass above zero... i.e. mass below
	// deadline slack exists).
	for gi := 0; gi < a.D.NL.NumGates(); gi++ {
		n := a.D.E.NodeOf[a.D.NL.Gate(netlist.GateID(gi)).Out]
		if a.Slack(n) == nil {
			t.Fatalf("gate %d: nil slack", gi)
		}
	}

	// Arrival mutation invalidates the cache.
	if _, err := a.ResizeCommit(ctx, 0, a.D.Width(0)+0.5, NewScratch()); err != nil {
		t.Fatal(err)
	}
	if a.HasRequired() {
		t.Error("required pass survived a ResizeCommit")
	}
}

func TestWhatIfMatchesCommit(t *testing.T) {
	a := c17Analysis(t)
	ctx := context.Background()
	d := a.D

	for gi := 0; gi < d.NL.NumGates(); gi++ {
		gid := netlist.GateID(gi)
		w := d.Width(gid) + d.Lib.DeltaW
		if w > d.Lib.WMax {
			continue
		}
		// What-if must not mutate anything.
		before := a.SinkDist()
		pert, visited, err := a.WhatIf(ctx, gid, w, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if a.SinkDist() != before {
			t.Fatal("WhatIf replaced the sink distribution")
		}
		if visited <= 0 {
			t.Fatalf("gate %d: WhatIf visited %d nodes", gi, visited)
		}

		// Committing the same resize on a clone must produce the exact
		// sink distribution WhatIf predicted, recomputing the same cone.
		dc := d.Clone()
		ac, err := Analyze(ctx, dc, a.DT)
		if err != nil {
			t.Fatal(err)
		}
		recomputed, err := ac.ResizeCommit(ctx, gid, w, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if !dist.ApproxEqual(pert.Dist(), ac.SinkDist(), 0) {
			t.Fatalf("gate %d: WhatIf sink differs from committed sink", gi)
		}
		if recomputed != visited {
			t.Fatalf("gate %d: commit recomputed %d nodes, what-if visited %d", gi, recomputed, visited)
		}
	}
}

// TestResizeCommitCanceledLeavesAnalysis pins the commit contract: a
// resize commit whose propagation is canceled leaves the design and the
// analysis exactly as they were — the gate's width, every net load and
// the total width, every arrival and edge-delay pointer, and the cached
// required times.
func TestResizeCommitCanceledLeavesAnalysis(t *testing.T) {
	a := c17Analysis(t)
	d := a.D
	g := d.E.G
	if err := a.ComputeRequired(context.Background(), dist.Point(a.DT, a.Percentile(0.99)), NewScratch()); err != nil {
		t.Fatal(err)
	}
	arrivals := make([]*dist.Dist, g.NumNodes())
	for n := range arrivals {
		arrivals[n] = a.Arrival(graph.NodeID(n))
	}
	edges := make([]*dist.Dist, g.NumEdges())
	for e := range edges {
		edges[e] = a.EdgeDelay(graph.EdgeID(e))
	}

	w0, total0 := d.Width(2), d.TotalWidth()
	loads := make([]float64, d.NL.NumNets())
	for n := range loads {
		loads[n] = d.Load(netlist.NetID(n))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.ResizeCommit(ctx, 2, w0+1, NewScratch()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled commit returned %v, want context.Canceled", err)
	}
	if d.Width(2) != w0 || d.TotalWidth() != total0 {
		t.Fatalf("canceled commit left width %v and total %v, want %v and %v", d.Width(2), d.TotalWidth(), w0, total0)
	}
	for n, want := range loads {
		if d.Load(netlist.NetID(n)) != want {
			t.Fatalf("canceled commit changed the load of net %d", n)
		}
	}
	for n, want := range arrivals {
		if a.Arrival(graph.NodeID(n)) != want {
			t.Fatalf("canceled commit replaced the arrival of node %d", n)
		}
	}
	for e, want := range edges {
		if a.EdgeDelay(graph.EdgeID(e)) != want {
			t.Fatalf("canceled commit replaced the delay of edge %d", e)
		}
	}
	if !a.HasRequired() {
		t.Fatal("canceled commit dropped the required-time cache")
	}
}

func TestSnapshotRestore(t *testing.T) {
	a := c17Analysis(t)
	ctx := context.Background()
	d := a.D

	if err := a.ComputeRequired(ctx, dist.Point(a.DT, a.Percentile(0.99)), NewScratch()); err != nil {
		t.Fatal(err)
	}
	st := a.Snapshot()
	dSt := d.Snapshot()
	sink0 := a.SinkDist()
	req0 := a.Required(d.E.G.Sink())

	if _, err := a.ResizeCommit(ctx, 2, d.Width(2)+1, NewScratch()); err != nil {
		t.Fatal(err)
	}
	if dist.ApproxEqual(sink0, a.SinkDist(), 0) {
		t.Fatal("resize did not change the sink (test is vacuous)")
	}

	d.Restore(dSt)
	a.Restore(st)
	if a.SinkDist() != sink0 {
		t.Error("Restore did not bring back the exact sink distribution")
	}
	if !a.HasRequired() || a.Required(d.E.G.Sink()) != req0 {
		t.Error("Restore did not bring back the required-time cache")
	}
	// The restored analysis must match a fresh pass.
	fresh, err := Analyze(ctx, d, a.DT)
	if err != nil {
		t.Fatal(err)
	}
	if !dist.ApproxEqual(a.SinkDist(), fresh.SinkDist(), 0) {
		t.Error("restored analysis inconsistent with the restored design")
	}
}
