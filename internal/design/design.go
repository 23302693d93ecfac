// Package design binds a netlist, a cell library and a sizing state
// (per-gate widths) into the object the timing engines and optimizers
// operate on. It maintains the per-net capacitive loads implied by EQ 1:
// a net's load is its wire capacitance plus the input-pin capacitance of
// every reader gate (which scales with that gate's width) plus the
// primary-output load if the net leaves the circuit.
package design

import (
	"fmt"
	"iter"
	"math"
	"slices"

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
// The width is clamped to the library's sizing range (±Inf included);
// the applied width is returned. A NaN width is a caller's bug, so
// SetWidth panics on it before changing anything.
func (d *Design) SetWidth(g netlist.GateID, w float64) float64 {
	if math.IsNaN(w) {
		panic(fmt.Sprintf("design: NaN width for gate %d", g))
	}
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

// AffectedGates yields the gates whose pin-to-pin delays change when
// gate x is resized, without allocating: x itself (its drive changed),
// then the driver of each of x's input nets (their output loads
// changed), skipping primary inputs, x itself and the driver of an
// earlier input. This is the initial perturbation scope of the paper's
// Initialize procedure (Figure 7, step 1), and every evaluation of a
// move reads exactly the pin edges of these gates at the new width.
func (d *Design) AffectedGates(x netlist.GateID) iter.Seq[netlist.GateID] {
	return func(yield func(netlist.GateID) bool) {
		if !yield(x) {
			return
		}
		ins := d.NL.Gate(x).Ins
		for i, in := range ins {
			drv := d.NL.Driver(in)
			seen := drv == netlist.NoGate || drv == x ||
				slices.ContainsFunc(ins[:i], func(n netlist.NetID) bool { return d.NL.Driver(n) == drv })
			if !seen && !yield(drv) {
				return
			}
		}
	}
}

// driveAt returns the width of gate g, the driver of a timing edge, and
// the load on its output net with gate x hypothetically at width w
// (already clamped), writing nothing, so any number of goroutines may
// call it concurrently over one design. The load is the cached load
// plus one input-capacitance delta per pin of x reading the net, the
// floating-point operations SetWidth performs, so every delay read
// through it is bit-identical to writing the width, reading the delay
// and restoring a snapshot. At x's committed width every delta is
// c − c = 0 and the committed width and load come back.
func (d *Design) driveAt(g, x netlist.GateID, w float64) (width, load float64) {
	width = d.widths[g]
	if g == x {
		width = w
	}
	out := d.NL.Gate(g).Out
	load = d.loads[out]
	for _, r := range d.NL.Readers(out) {
		if r.Gate == x {
			kind := d.NL.Gate(x).Kind
			load += d.Lib.InputCap(kind, w) - d.Lib.InputCap(kind, d.widths[x])
		}
	}
	return width, load
}

// EdgeDelayDistAt returns the discretized pin-to-pin delay distribution
// of a timing edge with gate x hypothetically at width w (clamped to
// the library range, exactly as SetWidth would clamp it), or nil for
// zero-delay source/sink arcs. Nothing is mutated (see driveAt), and
// at x's committed width the result equals EdgeDelayDist.
func (d *Design) EdgeDelayDistAt(dt float64, e graph.EdgeID, x netlist.GateID, w float64) (*dist.Dist, error) {
	g := d.E.EdgeGate[e]
	if g == netlist.NoGate {
		return nil, nil
	}
	width, load := d.driveAt(g, x, d.Lib.ClampWidth(w))
	return d.delayDist(dt, d.NL.Gate(g).Kind, d.E.EdgePin[e], width, load)
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

// NominalDelays returns the nominal delay of every timing edge, indexed
// by edge ID (see EdgeNominalDelay).
func (d *Design) NominalDelays() []float64 {
	delay := make([]float64, d.E.G.NumEdges())
	for e := range delay {
		delay[e] = d.EdgeNominalDelay(graph.EdgeID(e))
	}
	return delay
}

// NominalDelay returns the nominal circuit delay at current widths: the
// sink's arrival in the longest-path pass over NominalDelays.
func (d *Design) NominalDelay() float64 { return d.sinkArrival(d.NominalDelays()) }

// NominalDelayAt returns the nominal circuit delay with gate x
// hypothetically at width w (clamped as SetWidth clamps it), writing
// nothing: it re-evaluates the pin edges of AffectedGates(x) over
// NominalDelays through driveAt, so the result is bit-identical to
// NominalDelay after SetWidth(x, w).
func (d *Design) NominalDelayAt(x netlist.GateID, w float64) float64 {
	w = d.Lib.ClampWidth(w)
	delay := d.NominalDelays()
	for g := range d.AffectedGates(x) {
		kind := d.NL.Gate(g).Kind
		width, load := d.driveAt(g, x, w)
		for _, e := range d.E.GateEdges[g] {
			delay[e] = d.Lib.NominalDelay(kind, d.E.EdgePin[e], width, load)
		}
	}
	return d.sinkArrival(delay)
}

// sinkArrival returns the sink's arrival in the longest-path pass over
// per-edge delays.
func (d *Design) sinkArrival(delay []float64) float64 {
	g := d.E.G
	arr := make([]float64, g.NumNodes())
	g.LongestPaths(delay, arr, nil)
	return arr[g.Sink()]
}

// SuggestDT returns a grid bin width for SSTA: the nominal circuit delay
// at current widths divided by the requested bin budget.
func (d *Design) SuggestDT(bins int) float64 {
	if bins <= 0 {
		panic("design: non-positive bin budget")
	}
	maxDelay := d.NominalDelay()
	if maxDelay <= 0 {
		maxDelay = 1
	}
	// Sizing reduces delay, and the +3σ tail extends ~30% past nominal;
	// the budget covers the nominal span with headroom.
	return 1.35 * maxDelay / float64(bins)
}
