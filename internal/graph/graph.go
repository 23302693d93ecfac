// Package graph implements the timing graph of the paper's Definition 1:
// a directed acyclic graph with exactly one source and one sink, whose
// nodes correspond to circuit nets and whose edges correspond to gate
// input-pin-to-output-pin delay arcs (plus zero-delay arcs from the
// source to each primary input and from each primary output to the sink).
//
// The package holds pure topology — node and edge identities, adjacency,
// levelization and topological order. Delay semantics are attached by the
// netlist elaboration and consumed by the STA/SSTA engines.
package graph

import (
	"fmt"
)

// NodeID identifies a node (net). IDs are dense indices from 0.
type NodeID int32

// EdgeID identifies an edge (pin-to-pin arc). IDs are dense indices from 0.
type EdgeID int32

// Edge is an ordered pair of nodes.
type Edge struct {
	From, To NodeID
}

// Builder accumulates nodes and edges before validation.
type Builder struct {
	numNodes int
	edges    []Edge
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode allocates a new node and returns its ID.
func (b *Builder) AddNode() NodeID {
	id := NodeID(b.numNodes)
	b.numNodes++
	return id
}

// AddNodes allocates n nodes and returns the first ID.
func (b *Builder) AddNodes(n int) NodeID {
	id := NodeID(b.numNodes)
	b.numNodes += n
	return id
}

// NumNodes returns the number of nodes allocated so far.
func (b *Builder) NumNodes() int { return b.numNodes }

// AddEdge records a directed edge and returns its ID. Endpoints must
// already exist.
func (b *Builder) AddEdge(from, to NodeID) EdgeID {
	if int(from) >= b.numNodes || int(to) >= b.numNodes || from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) with %d nodes", from, to, b.numNodes))
	}
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{From: from, To: to})
	return id
}

// Graph is a validated timing graph. It is immutable after Build.
type Graph struct {
	source, sink NodeID
	edges        []Edge
	in, out      [][]EdgeID
	level        []int32 // longest edge distance from source
	topo         []NodeID
	maxLevel     int32
}

// Build validates the accumulated topology and returns the immutable
// graph. It checks that source has no fanin, sink has no fanout, the
// graph is acyclic, and every node both is reachable from source and
// reaches sink.
func (b *Builder) Build(source, sink NodeID) (*Graph, error) {
	n := b.numNodes
	if int(source) >= n || int(sink) >= n || source < 0 || sink < 0 {
		return nil, fmt.Errorf("graph: source %d or sink %d out of range (%d nodes)", source, sink, n)
	}
	if source == sink {
		return nil, fmt.Errorf("graph: source and sink coincide at node %d", source)
	}
	g := &Graph{
		source: source,
		sink:   sink,
		edges:  b.edges,
		in:     make([][]EdgeID, n),
		out:    make([][]EdgeID, n),
	}
	for id, e := range b.edges {
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self loop at node %d", e.From)
		}
		g.out[e.From] = append(g.out[e.From], EdgeID(id))
		g.in[e.To] = append(g.in[e.To], EdgeID(id))
	}
	if len(g.in[source]) != 0 {
		return nil, fmt.Errorf("graph: source node %d has %d fanin edges", source, len(g.in[source]))
	}
	if len(g.out[sink]) != 0 {
		return nil, fmt.Errorf("graph: sink node %d has %d fanout edges", sink, len(g.out[sink]))
	}
	if err := g.computeOrder(); err != nil {
		return nil, err
	}
	return g, nil
}

// computeOrder runs Kahn's algorithm to produce a topological order,
// detects cycles, computes levels as longest edge distance from the
// source, and verifies full source-to-sink connectivity.
func (g *Graph) computeOrder() error {
	n := len(g.in)
	indeg := make([]int32, n)
	for i := range indeg {
		indeg[i] = int32(len(g.in[i]))
	}
	g.level = make([]int32, n)
	g.topo = make([]NodeID, 0, n)
	queue := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		g.topo = append(g.topo, u)
		for _, eid := range g.out[u] {
			v := g.edges[eid].To
			if lv := g.level[u] + 1; lv > g.level[v] {
				g.level[v] = lv
			}
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(g.topo) != n {
		return fmt.Errorf("graph: cycle detected (%d of %d nodes ordered)", len(g.topo), n)
	}
	// Connectivity: every non-source node must have fanin (reachable only
	// through the DAG from roots); the only root must be the source, and
	// the only leaf the sink.
	for i := 0; i < n; i++ {
		id := NodeID(i)
		if id != g.source && len(g.in[i]) == 0 {
			return fmt.Errorf("graph: node %d has no fanin and is not the source", i)
		}
		if id != g.sink && len(g.out[i]) == 0 {
			return fmt.Errorf("graph: node %d has no fanout and is not the sink", i)
		}
	}
	g.maxLevel = g.level[g.sink]
	return nil
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.in) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Source returns the unique source node.
func (g *Graph) Source() NodeID { return g.source }

// Sink returns the unique sink node.
func (g *Graph) Sink() NodeID { return g.sink }

// EdgeAt returns the endpoints of edge id.
func (g *Graph) EdgeAt(id EdgeID) Edge { return g.edges[id] }

// In returns the fanin edge IDs of node n. The slice is shared; callers
// must not mutate it.
func (g *Graph) In(n NodeID) []EdgeID { return g.in[n] }

// Out returns the fanout edge IDs of node n. The slice is shared; callers
// must not mutate it.
func (g *Graph) Out(n NodeID) []EdgeID { return g.out[n] }

// Level returns the node's level: the longest edge distance from the
// source. The source is level 0 and the sink has the maximum level.
func (g *Graph) Level(n NodeID) int { return int(g.level[n]) }

// MaxLevel returns the sink's level.
func (g *Graph) MaxLevel() int { return int(g.maxLevel) }

// Topo returns a topological order of all nodes. The slice is shared;
// callers must not mutate it.
func (g *Graph) Topo() []NodeID { return g.topo }

// LongestPaths is the scalar longest-path pass every deterministic and
// sampled timing computation shares. Given one delay per edge, it sets
// arr[n] for every node: 0 at the source, and elsewhere the largest
// arr[From]+delay[e] over n's fan-in edges, taken in edge-ID order with
// the first of equal values winning. Arrivals are not floored at 0, so
// a negative delay can give a negative arrival. When via is non-nil,
// via[n] receives the winning fan-in edge, and -1 at the source. arr and
// via have one entry per node.
func (g *Graph) LongestPaths(delay, arr []float64, via []EdgeID) {
	for _, n := range g.topo {
		best, bestEdge := 0.0, EdgeID(-1)
		for _, eid := range g.in[n] {
			if t := arr[g.edges[eid].From] + delay[eid]; bestEdge < 0 || t > best {
				best, bestEdge = t, eid
			}
		}
		arr[n] = best
		if via != nil {
			via[n] = bestEdge
		}
	}
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{nodes=%d, edges=%d, levels=%d}", g.NumNodes(), g.NumEdges(), g.MaxLevel())
}
