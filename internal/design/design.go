// Package design binds a netlist, a cell library and a sizing state
// (per-gate widths) into the object the timing engines and optimizers
// operate on. It maintains the per-net capacitive loads implied by EQ 1:
// a net's load is its wire capacitance plus the input-pin capacitance of
// every reader gate (which scales with that gate's width) plus the
// primary-output load if the net leaves the circuit.
package design

import (
	"fmt"

	"statsize/internal/cell"
	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
)

// Design is a sized circuit: immutable structure plus mutable widths.
type Design struct {
	NL  *netlist.Netlist
	E   *netlist.Elab
	Lib *cell.Library

	widths []float64 // per gate, in multiples of minimum width
	loads  []float64 // per net, fF, kept consistent with widths
	total  float64   // sum of widths — the paper's "total gate size"

	// delays memoizes Lib.DelayDist evaluations across the whole sizing
	// run. Keys are exact (kind, pin, dt, width, load) tuples, so
	// entries never go stale and the cache is deliberately shared by
	// Clone: optimizer sweeps revisiting the same discrete widths reuse
	// distributions instead of re-deriving them.
	delays *DelayCache
}

// New elaborates the netlist and returns a design with every gate at
// minimum width.
func New(nl *netlist.Netlist, lib *cell.Library) (*Design, error) {
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	e, err := nl.Elaborate()
	if err != nil {
		return nil, err
	}
	d := &Design{
		NL:     nl,
		E:      e,
		Lib:    lib,
		widths: make([]float64, nl.NumGates()),
		loads:  make([]float64, nl.NumNets()),
		delays: NewDelayCache(),
	}
	for i := range d.widths {
		d.widths[i] = lib.WMin
		d.total += lib.WMin
	}
	for n := 0; n < nl.NumNets(); n++ {
		d.loads[n] = d.computeLoad(netlist.NetID(n))
	}
	return d, nil
}

// computeLoad evaluates a net's load from scratch.
func (d *Design) computeLoad(n netlist.NetID) float64 {
	readers := d.NL.Readers(n)
	load := d.Lib.WireCap(len(readers))
	for _, r := range readers {
		g := d.NL.Gate(r.Gate)
		load += d.Lib.InputCap(g.Kind, d.widths[r.Gate])
	}
	if d.NL.IsPO(n) {
		load += d.Lib.POLoad
	}
	return load
}

// Width returns gate g's current width.
func (d *Design) Width(g netlist.GateID) float64 { return d.widths[g] }

// SetWidth resizes gate g, updating the loads of the nets feeding it.
// The width is clamped to the library's sizing range; the applied width
// is returned.
func (d *Design) SetWidth(g netlist.GateID, w float64) float64 {
	w = d.Lib.ClampWidth(w)
	old := d.widths[g]
	if w == old {
		return w
	}
	gate := d.NL.Gate(g)
	delta := d.Lib.InputCap(gate.Kind, w) - d.Lib.InputCap(gate.Kind, old)
	// Each pin contributes its own input capacitance, so a net wired to
	// two pins of g gains delta once per pin.
	for _, in := range gate.Ins {
		d.loads[in] += delta
	}
	d.widths[g] = w
	d.total += w - old
	return w
}

// Load returns the capacitive load on net n, in fF.
func (d *Design) Load(n netlist.NetID) float64 { return d.loads[n] }

// TotalWidth returns the sum of all gate widths — the paper's "total
// gate size" (the y-axis of Figure 10 and the basis of Table 1's "% inc"
// column).
func (d *Design) TotalWidth() float64 { return d.total }

// EdgeNominalDelay returns the nominal pin-to-pin delay of a timing
// edge (EQ 1), or 0 for the zero-delay source→PI and PO→sink arcs.
func (d *Design) EdgeNominalDelay(e graph.EdgeID) float64 {
	g := d.E.EdgeGate[e]
	if g == netlist.NoGate {
		return 0
	}
	gate := d.NL.Gate(g)
	return d.Lib.NominalDelay(gate.Kind, d.E.EdgePin[e], d.widths[g], d.loads[gate.Out])
}

// EdgeDelayDist returns the discretized pin-to-pin delay distribution of
// a timing edge on grid dt, or nil for zero-delay source/sink arcs.
func (d *Design) EdgeDelayDist(dt float64, e graph.EdgeID) (*dist.Dist, error) {
	g := d.E.EdgeGate[e]
	if g == netlist.NoGate {
		return nil, nil
	}
	gate := d.NL.Gate(g)
	return d.delayDist(dt, gate.Kind, d.E.EdgePin[e], d.widths[g], d.loads[gate.Out])
}

// delayDist routes a delay-distribution evaluation through the memo
// cache; the returned *Dist is an immutable shared value.
func (d *Design) delayDist(dt float64, kind cell.Kind, pin int, w, load float64) (*dist.Dist, error) {
	if d.delays == nil {
		// A zero-value Design (tests constructing by hand) falls back to
		// direct evaluation.
		return d.Lib.DelayDist(dt, kind, pin, w, load)
	}
	return d.delays.DelayDist(d.Lib, dt, kind, pin, w, load)
}

// DelayCacheStats reports the hit/miss/flush counters and entry count
// of the delay-distribution memo cache (all zero when the cache has
// been dropped).
func (d *Design) DelayCacheStats() (hits, misses, flushes uint64, entries int) {
	if d.delays == nil {
		return 0, 0, 0, 0
	}
	hits, misses, flushes = d.delays.Stats()
	return hits, misses, flushes, d.delays.Len()
}

// DropDelayCache detaches the delay-distribution memo cache from this
// design (and only this design — clones sharing the cache keep it), so
// every subsequent delay evaluation goes straight to the library. The
// validation suite uses this to prove cache transparency: an analysis
// with the cache must be bit-identical to one without. Not intended
// for production paths, where the cache is always a win.
func (d *Design) DropDelayCache() { d.delays = nil }

// WidthAt returns gate g's width under a hypothetical assignment:
// the override when present (clamped to the library's sizing range,
// exactly as SetWidth would clamp it), the committed width otherwise.
func (d *Design) WidthAt(g netlist.GateID, overrides map[netlist.GateID]float64) float64 {
	if w, ok := overrides[g]; ok {
		return d.Lib.ClampWidth(w)
	}
	return d.widths[g]
}

// LoadAt returns net n's capacitive load under a hypothetical width
// assignment, without touching the design. It reproduces the exact
// floating-point operations the incremental load maintenance performs —
// the cached base load plus one input-capacitance delta per overridden
// reader pin, accumulated in reader-pin order (the canonical order).
// For a single-gate override — the shape every perturbation-evaluation
// path uses — the result is bit-identical to what Load(n) would report
// after SetWidth applied the same override, because every delta is the
// same value and addition order cannot matter. With several overridden
// gates reading one net, the reader-pin order is authoritative; a
// sequence of SetWidth calls in a different order can differ in the
// last ulp.
func (d *Design) LoadAt(n netlist.NetID, overrides map[netlist.GateID]float64) float64 {
	load := d.loads[n]
	for _, r := range d.NL.Readers(n) {
		w, ok := overrides[r.Gate]
		if !ok {
			continue
		}
		kind := d.NL.Gate(r.Gate).Kind
		load += d.Lib.InputCap(kind, d.Lib.ClampWidth(w)) - d.Lib.InputCap(kind, d.widths[r.Gate])
	}
	return load
}

// EdgeDelayDistAtWidths returns the discretized pin-to-pin delay
// distribution of a timing edge under a hypothetical width assignment,
// or nil for zero-delay source/sink arcs. Unlike EdgeDelayDist after a
// SetWidth, nothing is mutated: the driving gate's width and the output
// net's load are evaluated against the overrides functionally. This is
// the purity contract the parallel evaluation paths are built on — any
// number of goroutines may call it concurrently with different override
// sets over one design, and for a single-gate override (the shape every
// perturbation-evaluation path uses) the distribution is bit-identical
// to the mutate-evaluate-restore route; see LoadAt for the multi-gate
// accumulation-order caveat.
func (d *Design) EdgeDelayDistAtWidths(dt float64, e graph.EdgeID, overrides map[netlist.GateID]float64) (*dist.Dist, error) {
	g := d.E.EdgeGate[e]
	if g == netlist.NoGate {
		return nil, nil
	}
	gate := d.NL.Gate(g)
	return d.delayDist(dt, gate.Kind, d.E.EdgePin[e], d.WidthAt(g, overrides), d.LoadAt(gate.Out, overrides))
}

// State is a snapshot of the mutable sizing state (widths, loads, total)
// for checkpoint/rollback. It is valid only for the design it was taken
// from.
type State struct {
	widths []float64
	loads  []float64
	total  float64
}

// Snapshot captures the current sizing state.
func (d *Design) Snapshot() *State {
	return &State{
		widths: append([]float64(nil), d.widths...),
		loads:  append([]float64(nil), d.loads...),
		total:  d.total,
	}
}

// Restore rewinds the sizing state to a snapshot taken from this design.
func (d *Design) Restore(st *State) {
	copy(d.widths, st.widths)
	copy(d.loads, st.loads)
	d.total = st.total
}

// Clone returns an independent copy sharing the immutable structure.
func (d *Design) Clone() *Design {
	c := *d
	c.widths = append([]float64(nil), d.widths...)
	c.loads = append([]float64(nil), d.loads...)
	return &c
}

// RecomputeLoads rebuilds every net load from scratch and reports the
// first inconsistency with the incrementally maintained values, if any —
// a self-check used by tests and assertions.
func (d *Design) RecomputeLoads(tol float64) error {
	for n := 0; n < d.NL.NumNets(); n++ {
		want := d.computeLoad(netlist.NetID(n))
		if diff := want - d.loads[n]; diff > tol || diff < -tol {
			return fmt.Errorf("design: load of net %q drifted: cached %v, actual %v",
				d.NL.NetName(netlist.NetID(n)), d.loads[n], want)
		}
	}
	return nil
}

// SuggestDT returns a grid bin width for SSTA: the estimated maximum
// nominal circuit delay divided by the requested bin budget. The
// estimate is a longest-path pass over nominal delays at current widths.
func (d *Design) SuggestDT(bins int) float64 {
	if bins <= 0 {
		panic("design: non-positive bin budget")
	}
	g := d.E.G
	arr := make([]float64, g.NumNodes())
	for _, n := range g.Topo() {
		for _, eid := range g.In(n) {
			e := g.EdgeAt(eid)
			if t := arr[e.From] + d.EdgeNominalDelay(eid); t > arr[n] {
				arr[n] = t
			}
		}
	}
	maxDelay := arr[g.Sink()]
	if maxDelay <= 0 {
		maxDelay = 1
	}
	// Sizing reduces delay, and the +3σ tail extends ~30% past nominal;
	// the budget covers the nominal span with headroom.
	return 1.35 * maxDelay / float64(bins)
}
