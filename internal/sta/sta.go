// Package sta implements deterministic static timing analysis over the
// elaborated timing graph: nominal arrival times, required times and
// slacks, critical-path extraction, and an exact path-delay histogram
// (the path-count distribution of the paper's Figure 1).
//
// The deterministic optimizer baseline of Section 4 is built on this
// package; the statistical engine lives in package ssta.
package sta

import (
	"math"

	"statsize/internal/design"
	"statsize/internal/graph"
	"statsize/internal/netlist"
)

// Result holds one deterministic timing analysis.
type Result struct {
	d *design.Design
	// Arrival[n] is the longest-path arrival time at graph node n.
	Arrival []float64
	// Required[n] is the latest arrival at n that keeps the sink at its
	// current time; Required[n] - Arrival[n] is the node slack.
	Required []float64
}

// Analyze runs a full forward and backward pass at the design's current
// widths.
func Analyze(d *design.Design) *Result {
	g := d.E.G
	delay := d.NominalDelays()
	r := &Result{
		d:        d,
		Arrival:  make([]float64, g.NumNodes()),
		Required: make([]float64, g.NumNodes()),
	}
	g.LongestPaths(delay, r.Arrival, nil)
	for i := range r.Required {
		r.Required[i] = math.Inf(1)
	}
	r.Required[g.Sink()] = r.Arrival[g.Sink()]
	topo := g.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		for _, eid := range g.Out(n) {
			if t := r.Required[g.EdgeAt(eid).To] - delay[eid]; t < r.Required[n] {
				r.Required[n] = t
			}
		}
	}
	return r
}

// CircuitDelay returns the nominal circuit delay (arrival at the sink).
func (r *Result) CircuitDelay() float64 {
	return r.Arrival[r.d.E.G.Sink()]
}

// Slack returns Required - Arrival at a node; zero on the critical path.
func (r *Result) Slack(n graph.NodeID) float64 {
	return r.Required[n] - r.Arrival[n]
}

// CriticalPath backtracks one longest path from the sink to the source,
// returning its edges in source-to-sink order. Ties resolve to the
// lowest edge ID for determinism.
func (r *Result) CriticalPath() []graph.EdgeID {
	g := r.d.E.G
	var rev []graph.EdgeID
	n := g.Sink()
	for n != g.Source() {
		var pick graph.EdgeID = -1
		bestErr := math.Inf(1)
		for _, eid := range g.In(n) {
			e := g.EdgeAt(eid)
			err := math.Abs(r.Arrival[e.From] + r.d.EdgeNominalDelay(eid) - r.Arrival[n])
			if err < bestErr-1e-15 {
				bestErr = err
				pick = eid
			}
		}
		if pick < 0 {
			break // unreachable: every non-source node has fanin
		}
		rev = append(rev, pick)
		n = g.EdgeAt(pick).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// CriticalGates returns the distinct gates along the critical path in
// path order — the deterministic optimizer's candidate set.
func (r *Result) CriticalGates() []netlist.GateID {
	var out []netlist.GateID
	seen := make(map[netlist.GateID]bool)
	for _, eid := range r.CriticalPath() {
		gid := r.d.E.EdgeGate[eid]
		if gid == netlist.NoGate || seen[gid] {
			continue
		}
		seen[gid] = true
		out = append(out, gid)
	}
	return out
}

// Histogram is a path-count-versus-delay distribution: Counts[i] is the
// (possibly astronomically large, hence float64) number of distinct
// source-to-sink paths whose nominal delay falls in bin i of width Bin
// starting at delay zero.
type Histogram struct {
	Bin    float64
	Counts []float64
}

// NumPaths returns the total path count.
func (h *Histogram) NumPaths() float64 {
	s := 0.0
	for _, c := range h.Counts {
		s += c
	}
	return s
}

// MaxBinDelay returns the left edge of the last occupied bin.
func (h *Histogram) MaxBinDelay() float64 {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			return float64(i) * h.Bin
		}
	}
	return 0
}

// CountAtLeast returns the number of paths with delay >= t (the
// near-critical population whose size distinguishes the "wall" of
// Figure 1a from a well-shaped profile).
func (h *Histogram) CountAtLeast(t float64) float64 {
	from := int(math.Ceil(t / h.Bin))
	if from < 0 {
		from = 0
	}
	s := 0.0
	for i := from; i < len(h.Counts); i++ {
		s += h.Counts[i]
	}
	return s
}

// PathHistogram computes the exact path-count distribution by dynamic
// programming over the timing graph: the histogram at a node is the sum
// of its fanin histograms, each shifted by the corresponding edge delay
// (quantized to the bin width). Runs in O(E * bins).
func PathHistogram(d *design.Design, binWidth float64) *Histogram {
	if binWidth <= 0 {
		panic("sta: non-positive histogram bin width")
	}
	g := d.E.G
	per := make([][]float64, g.NumNodes())
	remainingUses := make([]int, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		remainingUses[n] = len(g.Out(graph.NodeID(n)))
	}
	per[g.Source()] = []float64{1} // one empty path at delay 0
	for _, n := range g.Topo() {
		if n == g.Source() {
			continue
		}
		var acc []float64
		for _, eid := range g.In(n) {
			e := g.EdgeAt(eid)
			src := per[e.From]
			off := int(math.Round(d.EdgeNominalDelay(eid) / binWidth))
			if need := len(src) + off; need > len(acc) {
				acc = append(acc, make([]float64, need-len(acc))...)
			}
			for i, c := range src {
				if c != 0 {
					acc[i+off] += c
				}
			}
			remainingUses[e.From]--
			if remainingUses[e.From] == 0 {
				per[e.From] = nil // free early; wide circuits hold many histograms
			}
		}
		per[n] = acc
	}
	return &Histogram{Bin: binWidth, Counts: per[g.Sink()]}
}
