package graph

import (
	"math/rand"
	"testing"
)

// buildDiamond constructs source -> a -> {b, c} -> d -> sink.
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	src := b.AddNode()
	a := b.AddNode()
	n1 := b.AddNode()
	n2 := b.AddNode()
	d := b.AddNode()
	sink := b.AddNode()
	b.AddEdge(src, a)
	b.AddEdge(a, n1)
	b.AddEdge(a, n2)
	b.AddEdge(n1, d)
	b.AddEdge(n2, d)
	b.AddEdge(d, sink)
	g, err := b.Build(src, sink)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDiamondBasics(t *testing.T) {
	g := buildDiamond(t)
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatalf("got %d nodes %d edges, want 6/6", g.NumNodes(), g.NumEdges())
	}
	if g.Level(g.Source()) != 0 {
		t.Error("source should be level 0")
	}
	if g.Level(g.Sink()) != 4 || g.MaxLevel() != 4 {
		t.Errorf("sink level = %d, want 4", g.Level(g.Sink()))
	}
	if len(g.In(g.Sink())) != 1 || len(g.Out(g.Source())) != 1 {
		t.Error("diamond adjacency wrong at source/sink")
	}
}

// TestLongestPaths pins the pass's rule on the diamond (edges 0: src→a,
// 1: a→n1, 2: a→n2, 3: n1→d, 4: n2→d, 5: d→sink): the source arrives at
// 0, a tie goes to the lower edge ID, via may be nil, and arrivals are
// not floored at 0.
func TestLongestPaths(t *testing.T) {
	g := buildDiamond(t)
	cases := []struct {
		name   string
		delay  []float64
		arr    []float64 // by node: src, a, n1, n2, d, sink
		dVia   EdgeID
		useVia bool
	}{
		{"tie", []float64{1, 2, 1, 1, 2, 0.5}, []float64{0, 1, 3, 2, 4, 4.5}, 3, true},
		{"nil via", []float64{1, 2, 1, 1, 2, 0.5}, []float64{0, 1, 3, 2, 4, 4.5}, 0, false},
		{"negative", []float64{1, -3, -2, 0, 0, -0.5}, []float64{0, 1, -2, -1, -1, -1.5}, 4, true},
	}
	for _, c := range cases {
		arr := []float64{9, 9, 9, 9, 9, 9} // every entry must be written
		var via []EdgeID
		if c.useVia {
			via = []EdgeID{9, 9, 9, 9, 9, 9}
		}
		g.LongestPaths(c.delay, arr, via)
		for n, want := range c.arr {
			if arr[n] != want {
				t.Errorf("%s: arrival at node %d = %v, want %v", c.name, n, arr[n], want)
			}
		}
		if !c.useVia {
			continue
		}
		if via[g.Source()] != -1 {
			t.Errorf("%s: via at the source = %d, want -1", c.name, via[g.Source()])
		}
		if via[4] != c.dVia {
			t.Errorf("%s: via at the join = edge %d, want %d", c.name, via[4], c.dVia)
		}
	}
}

func TestTopoRespectsEdges(t *testing.T) {
	g := buildDiamond(t)
	pos := make(map[NodeID]int)
	for i, n := range g.Topo() {
		pos[n] = i
	}
	if len(pos) != g.NumNodes() {
		t.Fatal("topo order missing nodes")
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.EdgeAt(EdgeID(i))
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d->%d violates topo order", e.From, e.To)
		}
	}
}

func TestLevelIsLongestPath(t *testing.T) {
	// source -> a -> b -> c -> sink with a shortcut a -> c: c must take
	// the longer route's level.
	b := NewBuilder()
	src, a, nb, c, sink := b.AddNode(), b.AddNode(), b.AddNode(), b.AddNode(), b.AddNode()
	b.AddEdge(src, a)
	b.AddEdge(a, nb)
	b.AddEdge(nb, c)
	b.AddEdge(a, c)
	b.AddEdge(c, sink)
	g, err := b.Build(src, sink)
	if err != nil {
		t.Fatal(err)
	}
	if g.Level(c) != 3 {
		t.Errorf("level(c) = %d, want 3 (longest path)", g.Level(c))
	}
}

func TestCycleDetected(t *testing.T) {
	b := NewBuilder()
	src, a, c, sink := b.AddNode(), b.AddNode(), b.AddNode(), b.AddNode()
	b.AddEdge(src, a)
	b.AddEdge(a, c)
	b.AddEdge(c, a) // cycle
	b.AddEdge(c, sink)
	if _, err := b.Build(src, sink); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestSelfLoopRejected(t *testing.T) {
	b := NewBuilder()
	src, a, sink := b.AddNode(), b.AddNode(), b.AddNode()
	b.AddEdge(src, a)
	b.AddEdge(a, a)
	b.AddEdge(a, sink)
	if _, err := b.Build(src, sink); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestDanglingNodeRejected(t *testing.T) {
	b := NewBuilder()
	src, a, sink := b.AddNode(), b.AddNode(), b.AddNode()
	orphanIn := b.AddNode() // no fanin
	b.AddEdge(src, a)
	b.AddEdge(a, sink)
	b.AddEdge(orphanIn, sink)
	if _, err := b.Build(src, sink); err == nil {
		t.Fatal("expected no-fanin error")
	}

	b2 := NewBuilder()
	src2, a2, sink2 := b2.AddNode(), b2.AddNode(), b2.AddNode()
	deadEnd := b2.AddNode() // no fanout
	b2.AddEdge(src2, a2)
	b2.AddEdge(a2, sink2)
	b2.AddEdge(src2, deadEnd)
	if _, err := b2.Build(src2, sink2); err == nil {
		t.Fatal("expected no-fanout error")
	}
}

func TestSourceWithFaninRejected(t *testing.T) {
	b := NewBuilder()
	src, a, sink := b.AddNode(), b.AddNode(), b.AddNode()
	b.AddEdge(src, a)
	b.AddEdge(a, sink)
	b.AddEdge(a, src)
	if _, err := b.Build(src, sink); err == nil {
		t.Fatal("expected source-fanin error")
	}
}

func TestSinkWithFanoutRejected(t *testing.T) {
	b := NewBuilder()
	src, a, sink := b.AddNode(), b.AddNode(), b.AddNode()
	b.AddEdge(src, a)
	b.AddEdge(a, sink)
	b.AddEdge(sink, a)
	if _, err := b.Build(src, sink); err == nil {
		t.Fatal("expected sink-fanout error")
	}
}

func TestSourceSinkValidation(t *testing.T) {
	b := NewBuilder()
	src := b.AddNode()
	if _, err := b.Build(src, src); err == nil {
		t.Fatal("expected coincident source/sink error")
	}
	if _, err := b.Build(src, NodeID(99)); err == nil {
		t.Fatal("expected out-of-range sink error")
	}
}

func TestAddNodes(t *testing.T) {
	b := NewBuilder()
	first := b.AddNodes(5)
	if first != 0 || b.NumNodes() != 5 {
		t.Fatalf("AddNodes: first=%d count=%d", first, b.NumNodes())
	}
	next := b.AddNode()
	if next != 5 {
		t.Fatalf("node after AddNodes = %d, want 5", next)
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder()
	b.AddNode()
	b.AddEdge(0, 7)
}

// randomLayeredDAG builds a valid layered random DAG for property tests:
// every non-source node gets at least one fanin from an earlier layer,
// nodes without consumers are wired to the sink.
func randomLayeredDAG(rng *rand.Rand, layers, width int) (*Builder, NodeID, NodeID) {
	b := NewBuilder()
	src := b.AddNode()
	prev := []NodeID{src}
	var all []NodeID
	for l := 0; l < layers; l++ {
		cur := make([]NodeID, 0, width)
		for w := 0; w < 1+rng.Intn(width); w++ {
			n := b.AddNode()
			// At least one fanin from the previous layer keeps levels tight.
			b.AddEdge(prev[rng.Intn(len(prev))], n)
			// Extra random fanins from any earlier node.
			for k := 0; k < rng.Intn(3); k++ {
				cand := src
				if len(all) > 0 {
					cand = all[rng.Intn(len(all))]
				}
				if cand != n {
					b.AddEdge(cand, n)
				}
			}
			cur = append(cur, n)
		}
		all = append(all, cur...)
		prev = cur
	}
	sink := b.AddNode()
	// Wire every node with no fanout to the sink.
	fanout := make(map[NodeID]bool)
	for _, e := range b.edges {
		fanout[e.From] = true
	}
	for _, n := range all {
		if !fanout[n] {
			b.AddEdge(n, sink)
		}
	}
	if !fanout[src] {
		b.AddEdge(src, sink)
	}
	return b, src, sink
}

func TestRandomDAGInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		b, src, sink := randomLayeredDAG(rng, 2+rng.Intn(8), 1+rng.Intn(6))
		g, err := b.Build(src, sink)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Topological order property.
		pos := make([]int, g.NumNodes())
		for i, n := range g.Topo() {
			pos[n] = i
		}
		for i := 0; i < g.NumEdges(); i++ {
			e := g.EdgeAt(EdgeID(i))
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("trial %d: topo violation on %d->%d", trial, e.From, e.To)
			}
			// Level strictly increases along edges.
			if g.Level(e.From) >= g.Level(e.To) {
				t.Fatalf("trial %d: level not increasing on %d->%d", trial, e.From, e.To)
			}
		}
		// Level equals 1 + max predecessor level.
		for _, n := range g.Topo() {
			if n == g.Source() {
				continue
			}
			want := 0
			for _, eid := range g.In(n) {
				if l := g.Level(g.EdgeAt(eid).From) + 1; l > want {
					want = l
				}
			}
			if g.Level(n) != want {
				t.Fatalf("trial %d: level(%d) = %d, want %d", trial, n, g.Level(n), want)
			}
		}
	}
}
