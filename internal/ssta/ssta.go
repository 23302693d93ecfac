// Package ssta implements block-based statistical static timing analysis
// with discretized arrival-time distributions, following the bound
// computation of Agarwal, Blaauw, Zolotov & Vrudhula (DAC'03) that the
// paper builds on: arrival CDFs propagate through a single topological
// pass, convolving with pin-to-pin delay PDFs along edges and combining
// fanins with the independence maximum. Reconvergent correlations are
// ignored, which makes the computed sink CDF a conservative upper bound
// on the exact circuit-delay CDF; package montecarlo quantifies the gap
// (Figure 10 of the paper shows it is small, <1% at the 99th
// percentile).
//
// The analysis object also provides the two building blocks the
// accelerated optimizer needs: cached per-edge delay distributions, and
// arrival recomputation with overlays (perturbed delays and arrivals
// supplied by the caller without mutating the base analysis).
package ssta

import (
	"context"
	"errors"
	"fmt"

	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
	"statsize/internal/par"
)

// cancelCheckStride is how many units of work (node propagations in the
// serial incremental paths — ResizeCommit, WhatIf, ComputeRequired)
// pass between context checks: frequent enough for sub-millisecond
// cancellation latency, rare enough to stay invisible in profiles. The
// parallel full pass checks through par.Run instead. Package montecarlo
// keeps its own equivalent constant.
const cancelCheckStride = 64

// Analysis is a completed SSTA pass over a design at fixed grid
// resolution. Arrival distributions are indexed by graph node.
//
// Every distribution reachable through an Analysis (arrivals, edge
// delays, required times) is an immutable shared heap value — never
// arena scratch — so queries, snapshots and concurrent read-only
// evaluations (WhatIf) can hold onto them freely; see DESIGN.md,
// "Memory model".
type Analysis struct {
	D  *design.Design
	DT float64

	arrival []*dist.Dist
	edge    []*dist.Dist // cached delay dists; nil for source/sink arcs

	// Backward required-time state, computed on demand by
	// ComputeRequired and invalidated by every arrival mutation.
	required []*dist.Dist
	deadline *dist.Dist

	// scratch is the kernel arena of the serial mutating passes
	// (ResizeCommit, ComputeRequired). Those passes already require
	// exclusive access to the analysis, so one arena suffices; the
	// read-only concurrent paths (WhatIf) carry their own Scratch.
	// Not part of Snapshot/Restore state.
	scratch *dist.Arena
}

// Analyze runs a full statistical timing analysis on grid dt with one
// worker per logical CPU. The context is checked periodically inside
// the propagation loops; on cancellation the partial analysis is
// discarded and the context's error is returned wrapped.
func Analyze(ctx context.Context, d *design.Design, dt float64) (*Analysis, error) {
	return AnalyzeParallel(ctx, d, dt, 0)
}

// AnalyzeParallel is Analyze with an explicit worker bound (non-positive
// means one worker per logical CPU; 1 is the serial reference path).
//
// The pass parallelizes in two stages. Edge-delay distributions are
// independent of each other and fan out freely. The forward arrival
// pass is level-parallel: nodes on one topological level depend only on
// strictly lower levels (an edge always increases the level), so levels
// run in sequence while the nodes within a level fan out. Every node's
// arrival is a pure function of its fanins and results land in
// per-node slots, so the computed analysis is bit-identical for every
// worker count.
func AnalyzeParallel(ctx context.Context, d *design.Design, dt float64, workers int) (*Analysis, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("ssta: non-positive dt %v", dt)
	}
	g := d.E.G
	a := &Analysis{
		D:       d,
		DT:      dt,
		arrival: make([]*dist.Dist, g.NumNodes()),
		edge:    make([]*dist.Dist, g.NumEdges()),
		scratch: dist.NewArena(),
	}
	// One pool serves the edge builds and every level of the forward
	// pass: levels are numerous and individually small, so worker
	// startup is paid once, not per level.
	pool := par.NewPool(workers)
	defer pool.Close()
	err := pool.Run(ctx, g.NumEdges(), func(e int) error {
		dd, err := d.EdgeDelayDist(dt, graph.EdgeID(e))
		if err != nil {
			return err
		}
		a.edge[e] = dd
		return nil
	})
	if err != nil {
		return nil, wrapAnalyzeErr(err)
	}
	// One kernel arena and one persist keeper per pool worker: a node's
	// convolve/max intermediates live in its worker's arena and die at
	// the next node's Reset; the final trimmed arrival is compacted
	// into the worker's keeper (bulk heap slabs — O(1) amortized
	// allocations per node). Workers never share either, so the hot
	// path carries no synchronization. The keepers are dropped with
	// this stack frame; their slabs live on exactly as long as the
	// arrivals carved from them.
	arenas := make([]*dist.Arena, pool.NumWorkers())
	keepers := make([]*dist.Keeper, pool.NumWorkers())
	for i := range arenas {
		arenas[i] = dist.NewArena()
		keepers[i] = dist.NewKeeper()
	}
	a.arrival[g.Source()] = dist.Point(dt, 0)
	for _, level := range levelNodes(g) {
		nodes := level
		err := pool.RunIndexed(ctx, len(nodes), func(w, i int) error {
			ar := arenas[w]
			ar.Reset()
			arr, err := a.arrivalOrErr(nodes[i], ar)
			if err != nil {
				return err
			}
			a.arrival[nodes[i]] = keepers[w].Persist(arr)
			return nil
		})
		if err != nil {
			return nil, wrapAnalyzeErr(err)
		}
	}
	return a, nil
}

// wrapAnalyzeErr dresses a pure cancellation in the analysis-canceled
// wrapper while letting genuine evaluation errors (the zero-fanin
// diagnostic, a delay-model failure) pass through untouched — a real
// diagnostic must never be masked just because the context also died
// while the batch drained.
func wrapAnalyzeErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("ssta: analysis canceled: %w", err)
	}
	return err
}

// levelNodes buckets every node except the source by topological level,
// in ascending level order with topological order inside each bucket.
// Level boundaries are the synchronization points of the parallel
// forward pass.
func levelNodes(g *graph.Graph) [][]graph.NodeID {
	out := make([][]graph.NodeID, g.MaxLevel()+1)
	for _, n := range g.Topo() {
		if n == g.Source() {
			continue
		}
		l := g.Level(n)
		out[l] = append(out[l], n)
	}
	return out
}

// arrivalOrErr evaluates one node's arrival against the base analysis,
// turning the nil a zero-fanin node would produce (a disconnected or
// malformed elaboration — graph validation should make this impossible)
// into a diagnostic error instead of letting the nil arrival propagate
// into a downstream Convolve or SinkDist deref.
func (a *Analysis) arrivalOrErr(n graph.NodeID, ar *dist.Arena) (*dist.Dist, error) {
	arr := a.computeArrival(n, nil, nil, ar)
	if arr == nil {
		return nil, fmt.Errorf("ssta: node %d has no fanin edges (disconnected or malformed elaboration)", n)
	}
	return arr, nil
}

// computeArrival evaluates one node's arrival CDF from its fanins. The
// overlay callbacks, when non-nil, substitute perturbed arrivals and
// perturbed edge delays; returning nil from an overlay falls back to the
// base analysis. This is the single implementation of the SSTA max/conv
// step shared by the full pass, incremental recompute, and the
// optimizer's perturbation-front propagation.
//
// With a non-nil arena the result (and every intermediate) is arena
// scratch — the caller decides when to Reset and must Persist anything
// it retains. A nil arena reproduces the historical allocating
// behavior. Either way the values are bit-identical.
func (a *Analysis) computeArrival(
	n graph.NodeID,
	arrOverlay func(graph.NodeID) *dist.Dist,
	delayOverlay func(graph.EdgeID) *dist.Dist,
	ar *dist.Arena,
) *dist.Dist {
	g := a.D.E.G
	var acc *dist.Dist
	for _, eid := range g.In(n) {
		e := g.EdgeAt(eid)
		from := a.arrival[e.From]
		if arrOverlay != nil {
			if o := arrOverlay(e.From); o != nil {
				from = o
			}
		}
		delay := a.edge[eid]
		if delayOverlay != nil {
			if o := delayOverlay(eid); o != nil {
				delay = o
			}
		}
		term := from
		if delay != nil {
			term = dist.ConvolveInto(ar, from, delay)
		}
		if acc == nil {
			acc = term
		} else {
			acc = dist.MaxIndepInto(ar, acc, term)
		}
	}
	return acc
}

// ArrivalWithOverlay exposes computeArrival for the optimizer's
// perturbation fronts, on the allocating path.
func (a *Analysis) ArrivalWithOverlay(
	n graph.NodeID,
	arrOverlay func(graph.NodeID) *dist.Dist,
	delayOverlay func(graph.EdgeID) *dist.Dist,
) *dist.Dist {
	return a.computeArrival(n, arrOverlay, delayOverlay, nil)
}

// ArrivalWithOverlayInto is ArrivalWithOverlay computing through the
// caller's arena: the returned distribution is scratch (Persist before
// retaining it) unless it is one of the base/overlay operands returned
// by a dominance shortcut.
func (a *Analysis) ArrivalWithOverlayInto(
	n graph.NodeID,
	arrOverlay func(graph.NodeID) *dist.Dist,
	delayOverlay func(graph.EdgeID) *dist.Dist,
	ar *dist.Arena,
) *dist.Dist {
	//lint:allow statlint/scratchescape returning scratch is this method's documented contract: the *Into suffix hands ownership to the arena-passing caller
	return a.computeArrival(n, arrOverlay, delayOverlay, ar)
}

// Arrival returns the arrival distribution at a node.
func (a *Analysis) Arrival(n graph.NodeID) *dist.Dist { return a.arrival[n] }

// EdgeDelay returns the cached delay distribution of an edge (nil for
// the zero-delay source/sink arcs).
func (a *Analysis) EdgeDelay(e graph.EdgeID) *dist.Dist { return a.edge[e] }

// SinkDist returns the circuit-delay distribution (the DAC'03 upper
// bound on the exact CDF).
func (a *Analysis) SinkDist() *dist.Dist { return a.arrival[a.D.E.G.Sink()] }

// Percentile returns the p-percentile of the circuit-delay distribution
// — the paper's optimization objective at p = 0.99.
func (a *Analysis) Percentile(p float64) float64 { return a.SinkDist().Percentile(p) }

// RefreshGate recomputes the cached delay distributions of every pin
// edge of the given gate (after its width or output load changed).
func (a *Analysis) RefreshGate(gid netlist.GateID) error {
	for _, eid := range a.D.E.GateEdges[gid] {
		dd, err := a.D.EdgeDelayDist(a.DT, eid)
		if err != nil {
			return err
		}
		a.edge[eid] = dd
	}
	return nil
}

// AffectedGates returns the set of gates whose pin-to-pin delays change
// when gate x is resized: x itself (its drive changed) and the driver of
// each of x's input nets (their output loads changed). This is exactly
// the initial perturbation scope of the paper's Initialize procedure
// (Figure 7, step 1).
func AffectedGates(d *design.Design, x netlist.GateID) []netlist.GateID {
	out := []netlist.GateID{x}
	seen := map[netlist.GateID]bool{x: true}
	for _, in := range d.NL.Gate(x).Ins {
		if drv := d.NL.Driver(in); drv != netlist.NoGate && !seen[drv] {
			seen[drv] = true
			out = append(out, drv)
		}
	}
	return out
}

// ResizeCommit makes the analysis consistent after gate x has been
// resized in the design: refreshes the affected delay caches and
// recomputes arrivals downstream, pruning nodes whose arrival is
// unchanged. Returns the number of nodes recomputed (a measure of the
// incremental saving versus a full pass). The context is checked
// periodically; on cancellation the analysis is left partially updated —
// callers that need all-or-nothing semantics restore from a Snapshot.
func (a *Analysis) ResizeCommit(ctx context.Context, x netlist.GateID) (int, error) {
	g := a.D.E.G
	affected := AffectedGates(a.D, x)
	for _, gid := range affected {
		if err := a.RefreshGate(gid); err != nil {
			return 0, err
		}
	}
	a.InvalidateRequired()
	// Seed the worklist with the output nodes of all affected gates.
	dirty := make(map[graph.NodeID]bool)
	for _, gid := range affected {
		dirty[a.D.E.NodeOf[a.D.NL.Gate(gid).Out]] = true
	}
	recomputed := 0
	for _, n := range g.Topo() {
		if !dirty[n] {
			continue
		}
		if recomputed%cancelCheckStride == 0 && ctx.Err() != nil {
			return recomputed, fmt.Errorf("ssta: resize commit canceled: %w", ctx.Err())
		}
		// Per-node arena cycle: intermediates die here, the surviving
		// arrival is compacted onto the heap before being retained.
		a.scratch.Reset()
		next := a.computeArrival(n, nil, nil, a.scratch)
		recomputed++
		if dist.ApproxEqual(next, a.arrival[n], 0) {
			continue // perturbation died out on this branch
		}
		a.arrival[n] = next.Persist()
		for _, eid := range g.Out(n) {
			dirty[g.EdgeAt(eid).To] = true
		}
	}
	return recomputed, nil
}

// PerturbedDelays returns the delay distributions that change when gate
// x is resized to w — the pin edges of x and of the drivers of x's input
// nets (Figure 7, step 1). The evaluation is mutation-free: the
// hypothetical width is applied functionally through
// design.EdgeDelayDistAtWidths, the design is never touched, and the
// distributions are bit-identical to what writing the width, reading
// the delays and restoring a design snapshot produces. Because
// nothing is written, any number of goroutines may evaluate different
// candidates concurrently against one quiescent analysis.
func (a *Analysis) PerturbedDelays(x netlist.GateID, w float64) (map[graph.EdgeID]*dist.Dist, error) {
	out := make(map[graph.EdgeID]*dist.Dist)
	if err := a.PerturbedDelaysInto(x, w, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PerturbedDelaysInto fills a caller-owned (typically scratch-reused)
// map instead of allocating one; the caller clears it between
// candidates. The distributions themselves come from the design's
// delay memo cache, so a sweep revisiting the same discrete widths
// performs no distribution construction at all.
func (a *Analysis) PerturbedDelaysInto(x netlist.GateID, w float64, out map[graph.EdgeID]*dist.Dist) error {
	d := a.D
	overrides := map[netlist.GateID]float64{x: w}
	for _, gid := range AffectedGates(d, x) {
		for _, eid := range d.E.GateEdges[gid] {
			dd, err := d.EdgeDelayDistAtWidths(a.DT, eid, overrides)
			if err != nil {
				return err
			}
			out[eid] = dd
		}
	}
	return nil
}

// Scratch bundles the reusable state of repeated read-only perturbation
// evaluations (WhatIf): a kernel arena plus the overlay maps, all
// recycled between calls so a warm candidate sweep allocates only what
// escapes (the persisted sink distribution). One Scratch serves one
// goroutine at a time; parallel sweeps hold one per worker.
type Scratch struct {
	ar      *dist.Arena
	delays  map[graph.EdgeID]*dist.Dist
	overlay map[graph.NodeID]*dist.Dist
	dirty   map[graph.NodeID]bool
}

// NewScratch returns an empty Scratch; capacity accumulates with use.
func NewScratch() *Scratch {
	return &Scratch{
		ar:      dist.NewArena(),
		delays:  make(map[graph.EdgeID]*dist.Dist),
		overlay: make(map[graph.NodeID]*dist.Dist),
		dirty:   make(map[graph.NodeID]bool),
	}
}

// reset rewinds the arena and empties the maps while keeping their
// buckets — the zero-allocation warm path.
func (sc *Scratch) reset() {
	sc.ar.Reset()
	clear(sc.delays)
	clear(sc.overlay)
	clear(sc.dirty)
}

// WhatIf propagates the perturbation of resizing gate x to width w
// through the timing graph without committing anything: neither the
// design nor the analysis is mutated. It returns the perturbed sink
// distribution and the number of nodes whose arrival was recomputed.
// Nodes whose perturbed arrival matches the base bit for bit stop the
// propagation on that branch (the same exact elision ResizeCommit and
// the accelerated optimizer use), so the cost is the size of the true
// perturbation cone, not the whole graph.
//
// WhatIf only reads the analysis (all overlay state is call-local), so
// concurrent WhatIf calls on one quiescent Analysis are safe — the
// property Session.WhatIfBatch fans candidate evaluations out on.
func (a *Analysis) WhatIf(ctx context.Context, x netlist.GateID, w float64) (*dist.Dist, int, error) {
	return a.WhatIfScratch(ctx, x, w, nil)
}

// WhatIfScratch is WhatIf evaluating through a reusable Scratch: the
// perturbation overlays live in the scratch arena for the duration of
// the call (no reset until the next call on the same Scratch), and only
// the returned sink distribution is compacted onto the heap. A nil
// scratch allocates a transient one — semantically identical, just not
// amortized. The returned distribution is always safe to retain.
func (a *Analysis) WhatIfScratch(ctx context.Context, x netlist.GateID, w float64, sc *Scratch) (*dist.Dist, int, error) {
	if sc == nil {
		sc = NewScratch()
	}
	sc.reset()
	g := a.D.E.G
	if err := a.PerturbedDelaysInto(x, w, sc.delays); err != nil {
		return nil, 0, err
	}
	overlay, dirty := sc.overlay, sc.dirty
	for _, gid := range AffectedGates(a.D, x) {
		dirty[a.D.E.NodeOf[a.D.NL.Gate(gid).Out]] = true
	}
	arrOverlay := func(n graph.NodeID) *dist.Dist { return overlay[n] }
	delayOverlay := func(e graph.EdgeID) *dist.Dist { return sc.delays[e] }
	visited := 0
	for _, n := range g.Topo() {
		if !dirty[n] {
			continue
		}
		if visited%cancelCheckStride == 0 && ctx.Err() != nil {
			return nil, visited, fmt.Errorf("ssta: what-if canceled: %w", ctx.Err())
		}
		pert := a.computeArrival(n, arrOverlay, delayOverlay, sc.ar)
		visited++
		if dist.ApproxEqual(pert, a.arrival[n], 0) {
			continue // perturbation died out on this branch
		}
		//lint:allow statlint/scratchescape the overlay map is scratch-scoped: reset together with sc.ar, only the persisted sink below escapes
		overlay[n] = pert
		for _, eid := range g.Out(n) {
			dirty[g.EdgeAt(eid).To] = true
		}
	}
	if o := overlay[g.Sink()]; o != nil {
		return o.Persist(), visited, nil
	}
	return a.arrival[g.Sink()], visited, nil
}

// ComputeRequired runs the backward required-time pass: the deadline
// distribution is imposed at the sink and propagated against the edge
// direction — subtracting edge-delay distributions (SubConvolve) along
// each fanout arc and merging fanouts with the independence minimum.
// This is the mirror image of the forward arrival pass; with both in
// hand, statistical slack and gate criticality become O(1) queries.
//
// Required times are cached until the next arrival mutation
// (ResizeCommit) invalidates them.
func (a *Analysis) ComputeRequired(ctx context.Context, deadline *dist.Dist) error {
	g := a.D.E.G
	req := make([]*dist.Dist, g.NumNodes())
	topo := g.Topo()
	req[g.Sink()] = deadline
	// Pass-scoped persist keeper, like the forward pass's (see
	// AnalyzeParallel); the backward pass is serial, so one suffices.
	keeper := dist.NewKeeper()
	for i := len(topo) - 1; i >= 0; i-- {
		if i%cancelCheckStride == 0 && ctx.Err() != nil {
			return fmt.Errorf("ssta: required-time pass canceled: %w", ctx.Err())
		}
		n := topo[i]
		if n == g.Sink() {
			continue
		}
		// Same per-node arena cycle as the forward passes: the
		// SubConvolve negation/convolution temporaries and losing
		// MinIndep accumulators stay in scratch, the surviving required
		// time is compacted before retention.
		a.scratch.Reset()
		var acc *dist.Dist
		for _, eid := range g.Out(n) {
			t := req[g.EdgeAt(eid).To]
			if dd := a.edge[eid]; dd != nil {
				t = dist.SubConvolveInto(a.scratch, t, dd)
			}
			if acc == nil {
				acc = t
			} else {
				acc = dist.MinIndepInto(a.scratch, acc, t)
			}
		}
		if acc != nil {
			acc = keeper.Persist(acc)
		}
		req[n] = acc
	}
	a.required = req
	a.deadline = deadline
	return nil
}

// HasRequired reports whether a required-time pass is cached and
// consistent with the current arrivals.
func (a *Analysis) HasRequired() bool { return a.required != nil }

// Deadline returns the sink deadline distribution of the cached
// required-time pass, or nil when none is cached.
func (a *Analysis) Deadline() *dist.Dist { return a.deadline }

// Required returns the required-time distribution at a node, or nil
// when no required-time pass is cached (call ComputeRequired first).
func (a *Analysis) Required(n graph.NodeID) *dist.Dist {
	if a.required == nil {
		return nil
	}
	return a.required[n]
}

// Slack returns the statistical slack distribution at a node: the
// distribution of required minus arrival, treating the two as
// independent. Shared paths correlate them in reality, so tail
// probabilities are approximate — but the sign structure (mass below
// zero = probability the node violates the deadline) is the queryable
// criticality signal the paper otherwise obtains from Monte Carlo.
// Returns nil when no required-time pass is cached.
func (a *Analysis) Slack(n graph.NodeID) *dist.Dist {
	if a.required == nil {
		return nil
	}
	return dist.SubConvolve(a.required[n], a.arrival[n])
}

// InvalidateRequired drops the cached backward pass; arrival mutations
// call it internally, and sessions call it when the deadline changes.
func (a *Analysis) InvalidateRequired() {
	a.required = nil
	a.deadline = nil
}

// State is an O(nodes) snapshot of the analysis for checkpoint/rollback:
// distributions are immutable once computed, so the snapshot shares them
// and only copies the index slices.
type State struct {
	arrival  []*dist.Dist
	edge     []*dist.Dist
	required []*dist.Dist
	deadline *dist.Dist
}

// Snapshot captures the current analysis state.
func (a *Analysis) Snapshot() *State {
	st := &State{
		arrival:  append([]*dist.Dist(nil), a.arrival...),
		edge:     append([]*dist.Dist(nil), a.edge...),
		deadline: a.deadline,
	}
	if a.required != nil {
		st.required = append([]*dist.Dist(nil), a.required...)
	}
	return st
}

// Restore rewinds the analysis to a snapshot taken on the same design.
func (a *Analysis) Restore(st *State) {
	copy(a.arrival, st.arrival)
	copy(a.edge, st.edge)
	if st.required != nil {
		a.required = append(a.required[:0], st.required...)
	} else {
		a.required = nil
	}
	a.deadline = st.deadline
}
