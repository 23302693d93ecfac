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
	"slices"

	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
	"statsize/internal/par"
)

// cancelCheckStride is how many units of work (node recomputations in
// the serial incremental paths — propagate and ComputeRequired) pass
// between context checks: frequent enough for sub-millisecond
// cancellation latency, rare enough to stay invisible in profiles. The
// parallel full pass checks through its par.Pool instead, which stops
// drawing nodes once the context dies. Package montecarlo keeps its own
// equivalent constant.
const cancelCheckStride = 64

// Analysis is a completed SSTA pass over a design at fixed grid
// resolution. Arrival distributions are indexed by graph node.
//
// Every distribution reachable through an Analysis (arrivals, edge
// delays, required times) sits in a dist.Owned slot: an immutable
// shared heap value, never arena scratch, so queries, snapshots and
// concurrent read-only evaluations (WhatIf) can hold onto them freely;
// see DESIGN.md, "Memory model".
type Analysis struct {
	D  *design.Design
	DT float64

	arrival []dist.Owned
	edge    []dist.Owned // cached delay dists; empty for source/sink arcs

	// Backward required-time state, computed on demand by
	// ComputeRequired and invalidated by every arrival mutation.
	required []dist.Owned
	deadline dist.Owned
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
		arrival: make([]dist.Owned, g.NumNodes()),
		edge:    make([]dist.Owned, g.NumEdges()),
	}
	// One pool serves the edge builds and every level of the forward
	// pass: levels are numerous and individually small, so worker
	// startup is paid once, not per level.
	states := make([]passWorker, par.Workers(workers))
	for i := range states {
		states[i] = passWorker{ar: dist.NewArena(), keeper: dist.NewKeeper()}
	}
	pool := par.NewPool(states)
	defer pool.Close()
	err := pool.Run(ctx, g.NumEdges(), func(_ passWorker, e int) error {
		dd, err := d.EdgeDelayDist(dt, graph.EdgeID(e))
		if err != nil {
			return err
		}
		a.edge[e] = dd.Persist()
		return nil
	})
	if err != nil {
		return nil, wrapAnalyzeErr(err)
	}
	a.arrival[g.Source()] = dist.Point(dt, 0).Persist()
	for _, level := range levelNodes(g) {
		nodes := level
		err := pool.Run(ctx, len(nodes), func(pw passWorker, i int) error {
			pw.ar.Reset()
			arr, err := a.arrivalOrErr(nodes[i], pw.ar)
			if err != nil {
				return err
			}
			a.arrival[nodes[i]] = pw.keeper.Persist(arr)
			return nil
		})
		if err != nil {
			return nil, wrapAnalyzeErr(err)
		}
	}
	return a, nil
}

// passWorker is one forward-pass worker's state: a kernel arena, where
// a node's convolve/max intermediates live until the next node's Reset,
// and a persist keeper, which compacts the final trimmed arrival into
// bulk heap slabs (O(1) amortized allocations per node). The pool hands
// each worker only its own, so the hot path carries no synchronization.
// The keepers are dropped with the pass; their slabs live on exactly as
// long as the arrivals carved from them.
type passWorker struct {
	ar     *dist.Arena
	keeper *dist.Keeper
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
// dense overlays, when non-nil, substitute perturbed arrivals (by
// NodeID) and perturbed edge delays (by EdgeID); a nil entry falls back
// to the base analysis. This is the single implementation of the SSTA
// max/conv step shared by the full pass, incremental recompute, and the
// optimizer's perturbation-front propagation.
//
// With a non-nil arena the result (and every intermediate) is arena
// scratch — the caller decides when to Reset and must Persist anything
// it retains. A nil arena reproduces the historical allocating
// behavior. Either way the values are bit-identical.
func (a *Analysis) computeArrival(n graph.NodeID, arrOverlay, delayOverlay []*dist.Dist, ar *dist.Arena) *dist.Dist {
	g := a.D.E.G
	var acc *dist.Dist
	for _, eid := range g.In(n) {
		e := g.EdgeAt(eid)
		from := a.arrival[e.From].Dist()
		if arrOverlay != nil {
			if o := arrOverlay[e.From]; o != nil {
				from = o
			}
		}
		delay := a.edge[eid].Dist()
		if delayOverlay != nil {
			if o := delayOverlay[eid]; o != nil {
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

// ArrivalWithOverlayInto evaluates node n's arrival against sc's dense
// overlays (see Overlays), computing in sc's arena: the result is
// scratch, valid until that arena's next Reset, unless it is one of the
// base or overlay operands a dominance shortcut returns. The caller
// owns sc, so it owns the result; retaining it takes Persist or a
// Recycler's Keep. This is how the optimizer's perturbation fronts
// step: they load their live arrivals and perturbed delays into the
// overlays, evaluate, and clear them.
func (a *Analysis) ArrivalWithOverlayInto(n graph.NodeID, sc *Scratch) *dist.Dist {
	return a.computeArrival(n, sc.arr, sc.delay, sc.ar)
}

// Arrival returns the arrival distribution at a node.
func (a *Analysis) Arrival(n graph.NodeID) *dist.Dist { return a.arrival[n].Dist() }

// EdgeDelay returns the cached delay distribution of an edge (nil for
// the zero-delay source/sink arcs).
func (a *Analysis) EdgeDelay(e graph.EdgeID) *dist.Dist { return a.edge[e].Dist() }

// SinkDist returns the circuit-delay distribution (the DAC'03 upper
// bound on the exact CDF).
func (a *Analysis) SinkDist() *dist.Dist { return a.Arrival(a.D.E.G.Sink()) }

// Percentile returns the p-percentile of the circuit-delay distribution
// — the paper's optimization objective at p = 0.99.
func (a *Analysis) Percentile(p float64) float64 { return a.SinkDist().Percentile(p) }

// AffectedGates returns the set of gates whose pin-to-pin delays change
// when gate x is resized: x itself (its drive changed) and the driver of
// each of x's input nets (their output loads changed). This is exactly
// the initial perturbation scope of the paper's Initialize procedure
// (Figure 7, step 1).
func AffectedGates(d *design.Design, x netlist.GateID) []netlist.GateID {
	out := []netlist.GateID{x}
	for _, in := range d.NL.Gate(x).Ins {
		if drv := d.NL.Driver(in); drv != netlist.NoGate && !slices.Contains(out, drv) {
			out = append(out, drv)
		}
	}
	return out
}

// EdgeDelay is one perturbed pin-edge delay distribution.
type EdgeDelay struct {
	Edge  graph.EdgeID
	Delay *dist.Dist
}

// PerturbedDelays returns the delay distributions that change when gate
// x is resized to w — the pin edges of x and of the drivers of x's input
// nets (Figure 7, step 1), each edge once, in AffectedGates order. The
// evaluation is mutation-free (design.EdgeDelayDistAt), so any number of
// goroutines may evaluate different candidates concurrently against one
// quiescent analysis, and the distributions are bit-identical to what
// writing the width, reading the delays and restoring a design snapshot
// produces.
func (a *Analysis) PerturbedDelays(x netlist.GateID, w float64) ([]EdgeDelay, error) {
	var out []EdgeDelay
	err := a.perturbedDelays(x, w, func(e graph.EdgeID, dd *dist.Dist) { out = append(out, EdgeDelay{e, dd}) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// perturbedDelays evaluates PerturbedDelays' distributions, handing each
// to set. The distributions come from the design's delay memo cache, so
// a sweep revisiting the same discrete widths constructs none.
func (a *Analysis) perturbedDelays(x netlist.GateID, w float64, set func(graph.EdgeID, *dist.Dist)) error {
	d := a.D
	for _, gid := range AffectedGates(d, x) {
		for _, eid := range d.E.GateEdges[gid] {
			dd, err := d.EdgeDelayDistAt(a.DT, eid, x, w)
			if err != nil {
				return err
			}
			set(eid, dd)
		}
	}
	return nil
}

// Scratch is the reusable working set of one candidate evaluation: a
// kernel arena, rewound per node; a candidate arena, which holds the
// arrivals a propagation keeps; two dense overlays on the base
// analysis, perturbed arrivals by NodeID and perturbed delays by
// EdgeID, where nil means "use the base"; and a recycler for the
// optimizer's perturbation fronts. Every evaluation pass computes
// through one, so a warm sweep allocates only what escapes. One
// Scratch serves one goroutine at a time; parallel sweeps hold one per
// worker, as par.Pool worker state.
//
// The overlays hold scratch by contract: their entries are
// candidate-arena views that the next perturb rewinds with that arena
// (or, for a perturbation front, values its recycler keeps), which is
// why they are plain *dist.Dist slices and not Owned slots. Whatever
// outlives the evaluation leaves through Persist (WhatIf's sink,
// ResizeCommit's arrivals).
type Scratch struct {
	ar    *dist.Arena
	held  *dist.Arena
	arr   []*dist.Dist
	delay []*dist.Dist
	rec   dist.Recycler
}

// NewScratch returns an empty Scratch; its overlays are sized to the
// graph on first use and its arenas grow with use.
func NewScratch() *Scratch { return &Scratch{ar: dist.NewArena(), held: dist.NewArena()} }

// Arena returns the scratch's kernel arena, for callers that evaluate
// through it and rewind it per node (the optimizer's perturbation
// fronts).
func (sc *Scratch) Arena() *dist.Arena { return sc.ar }

// Recycler returns the scratch's front storage: the recycler the
// optimizer's perturbation fronts built on this worker keep their live
// arrivals in.
func (sc *Scratch) Recycler() *dist.Recycler { return &sc.rec }

// Overlays returns sc's dense overlays sized to a's graph — perturbed
// arrivals by NodeID and perturbed delays by EdgeID — for a caller
// that loads entries, evaluates them with ArrivalWithOverlayInto and
// clears exactly those entries again. Entries left by an earlier
// evaluation stay until the caller clears them; a newly sized pair is
// all-nil.
func (a *Analysis) Overlays(sc *Scratch) (arr, delay []*dist.Dist) {
	g := a.D.E.G
	if len(sc.arr) != g.NumNodes() || len(sc.delay) != g.NumEdges() {
		sc.arr = make([]*dist.Dist, g.NumNodes())
		sc.delay = make([]*dist.Dist, g.NumEdges())
	}
	return sc.arr, sc.delay
}

// perturb rewinds sc's candidate arena and loads gate x's perturbation
// at width w into sc: the perturbed pin-edge delays in the delay
// overlay, every arrival at its base. The kernel arena needs no rewind
// here; the propagation loops rewind it per node.
func (a *Analysis) perturb(sc *Scratch, x netlist.GateID, w float64) error {
	sc.held.Reset()
	arr, delay := a.Overlays(sc)
	clear(arr)
	clear(delay)
	return a.perturbedDelays(x, w, func(e graph.EdgeID, dd *dist.Dist) { sc.delay[e] = dd })
}

// propagate carries the perturbation loaded in sc through the graph —
// the one propagation loop behind WhatIf and ResizeCommit. Walking the
// topological order, it recomputes every node with a perturbed fanin
// (an in-edge in the delay overlay, or a fanin node in the arrival
// overlay) and keeps the result in the arrival overlay only when it
// differs from the base: a node whose perturbed arrival matches bit for
// bit ends the perturbation on that branch (exact elision), so the cost
// is the true perturbation cone. Each node's kernel intermediates live
// in the kernel arena until the next node rewinds it; a kept arrival is
// copied into the candidate arena and stays scratch there until the
// caller persists what it keeps. Returns the number of nodes
// recomputed.
func (a *Analysis) propagate(ctx context.Context, sc *Scratch) (int, error) {
	g := a.D.E.G
	perturbedIn := func(e graph.EdgeID) bool { return sc.delay[e] != nil || sc.arr[g.EdgeAt(e).From] != nil }
	visited := 0
	for _, n := range g.Topo() {
		if !slices.ContainsFunc(g.In(n), perturbedIn) {
			continue
		}
		if visited%cancelCheckStride == 0 && ctx.Err() != nil {
			return visited, ctx.Err()
		}
		sc.ar.Reset()
		pert := a.computeArrival(n, sc.arr, sc.delay, sc.ar)
		visited++
		if !dist.ApproxEqual(pert, a.arrival[n].Dist(), 0) {
			sc.arr[n] = sc.held.Copy(pert)
		}
	}
	return visited, nil
}

// WhatIf propagates the perturbation of resizing gate x to width w
// through the timing graph without committing anything: neither the
// design nor the analysis is mutated. It returns the perturbed sink
// distribution, persisted and safe to retain, and the number of nodes
// whose arrival was recomputed — the true perturbation cone (see
// propagate). The overlays live in sc until its next use. WhatIf only
// reads the analysis, so concurrent calls with distinct Scratches on
// one quiescent Analysis are safe — the property Session.WhatIfBatch
// fans candidate evaluations out on.
func (a *Analysis) WhatIf(ctx context.Context, x netlist.GateID, w float64, sc *Scratch) (dist.Owned, int, error) {
	if err := a.perturb(sc, x, w); err != nil {
		return dist.Owned{}, 0, err
	}
	visited, err := a.propagate(ctx, sc)
	if err != nil {
		return dist.Owned{}, visited, fmt.Errorf("ssta: what-if canceled: %w", err)
	}
	sink := a.D.E.G.Sink()
	if o := sc.arr[sink]; o != nil {
		return o.Persist(), visited, nil
	}
	return a.arrival[sink], visited, nil
}

// WhatIfFull is WhatIf without pruning — the full SSTA propagation per
// candidate of the brute-force optimizer (Section 3.1). It loads the
// same perturbation into sc but recomputes every node except the
// source, without elision, so its visit count is the full-pass
// reference Table 2 measures the accelerated optimizer against. The
// kernel arena is rewound per node, and every perturbed arrival is
// copied into the candidate arena, where it stays live until the sink;
// only the persisted sink escapes. It takes no context: a sweep checks
// cancellation between candidates.
func (a *Analysis) WhatIfFull(x netlist.GateID, w float64, sc *Scratch) (dist.Owned, int, error) {
	if err := a.perturb(sc, x, w); err != nil {
		return dist.Owned{}, 0, err
	}
	g := a.D.E.G
	visited := 0
	for _, n := range g.Topo() {
		if n == g.Source() {
			continue
		}
		sc.ar.Reset()
		sc.arr[n] = sc.held.Copy(a.computeArrival(n, sc.arr, sc.delay, sc.ar))
		visited++
	}
	return sc.arr[g.Sink()].Persist(), visited, nil
}

// ResizeCommit makes the analysis consistent after gate x has been
// resized in the design. It propagates x's perturbation at the
// committed width through sc exactly as WhatIf does, and only once the
// propagation completes writes the new pin-edge delays and the
// persisted overlay arrivals into the analysis and drops the cached
// required times. At the committed width the perturbed delays equal
// EdgeDelayDist's, so the result is bit-identical to a full pass.
// Returns the number of nodes recomputed; on any error, cancellation
// included, the analysis is unchanged.
func (a *Analysis) ResizeCommit(ctx context.Context, x netlist.GateID, sc *Scratch) (int, error) {
	if err := a.perturb(sc, x, a.D.Width(x)); err != nil {
		return 0, err
	}
	recomputed, err := a.propagate(ctx, sc)
	if err != nil {
		return recomputed, fmt.Errorf("ssta: resize commit canceled: %w", err)
	}
	for e, dd := range sc.delay {
		if dd != nil {
			a.edge[e] = dd.Persist()
		}
	}
	for n, arr := range sc.arr {
		if arr != nil {
			a.arrival[n] = arr.Persist()
		}
	}
	a.InvalidateRequired()
	return recomputed, nil
}

// ComputeRequired runs the backward required-time pass: the deadline
// distribution is imposed at the sink and propagated against the edge
// direction — subtracting edge-delay distributions (SubConvolve) along
// each fanout arc and merging fanouts with the independence minimum.
// This is the mirror image of the forward arrival pass; with both in
// hand, statistical slack and gate criticality become O(1) queries.
//
// Required times are cached until the next arrival mutation
// (ResizeCommit) invalidates them. The kernels compute in sc's arena.
func (a *Analysis) ComputeRequired(ctx context.Context, deadline *dist.Dist, sc *Scratch) error {
	g := a.D.E.G
	req := make([]dist.Owned, g.NumNodes())
	topo := g.Topo()
	req[g.Sink()] = deadline.Persist()
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
		sc.ar.Reset()
		var acc *dist.Dist
		for _, eid := range g.Out(n) {
			t := req[g.EdgeAt(eid).To].Dist()
			if dd := a.edge[eid].Dist(); dd != nil {
				t = dist.SubConvolveInto(sc.ar, t, dd)
			}
			if acc == nil {
				acc = t
			} else {
				acc = dist.MinIndepInto(sc.ar, acc, t)
			}
		}
		if acc != nil {
			req[n] = keeper.Persist(acc)
		}
	}
	a.required = req
	a.deadline = req[g.Sink()]
	return nil
}

// HasRequired reports whether a required-time pass is cached and
// consistent with the current arrivals.
func (a *Analysis) HasRequired() bool { return a.required != nil }

// Deadline returns the sink deadline distribution of the cached
// required-time pass, or nil when none is cached.
func (a *Analysis) Deadline() *dist.Dist { return a.deadline.Dist() }

// Required returns the required-time distribution at a node, or nil
// when no required-time pass is cached (call ComputeRequired first).
func (a *Analysis) Required(n graph.NodeID) *dist.Dist {
	if a.required == nil {
		return nil
	}
	return a.required[n].Dist()
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
	return dist.SubConvolve(a.required[n].Dist(), a.arrival[n].Dist())
}

// InvalidateRequired drops the cached backward pass; arrival mutations
// call it internally, and sessions call it when the deadline changes.
func (a *Analysis) InvalidateRequired() {
	a.required = nil
	a.deadline = dist.Owned{}
}

// State is an O(nodes) snapshot of the analysis for checkpoint/rollback:
// the slots are Owned, immutable once computed, so the snapshot shares
// them and only copies the index slices.
type State struct {
	arrival  []dist.Owned
	edge     []dist.Owned
	required []dist.Owned
	deadline dist.Owned
}

// Snapshot captures the current analysis state.
func (a *Analysis) Snapshot() *State {
	st := &State{
		arrival:  append([]dist.Owned(nil), a.arrival...),
		edge:     append([]dist.Owned(nil), a.edge...),
		deadline: a.deadline,
	}
	if a.required != nil {
		st.required = append([]dist.Owned(nil), a.required...)
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
