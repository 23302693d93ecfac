package core

import (
	"container/heap"
	"context"
	"math"
	"slices"

	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
	"statsize/internal/par"
	"statsize/internal/session"
	"statsize/internal/ssta"
)

// Accelerated runs the paper's pruning algorithm (Figures 6, 7 and 9).
//
// For every candidate gate a perturbation front is initialized: the
// delay distributions of the gate and of its fanin drivers are perturbed
// for one width step, and the perturbed arrival CDFs are propagated from
// the lowest affected level up to the gate's own level (Initialize,
// Figure 7). Each front carries the bound Smx = Δmx/Δw, where Δmx is the
// largest perturbation gap across the front's live nodes; by Theorems
// 1–4 this bound is an upper bound on the candidate's true sensitivity
// and can only shrink as the front advances.
//
// The inner loop (Figure 6, steps 6–21) repeatedly advances the front
// with the largest bound by one level. When a front reaches the sink,
// its exact sensitivity updates Max_S; any front whose bound falls below
// Max_S is discarded without further propagation. The surviving argmax
// is identical to the brute-force result.
func Accelerated(ctx context.Context, s *session.Session, cfg Config) (*Result, error) {
	return statisticalDescent(ctx, s, cfg, "accelerated", acceleratedIteration)
}

// front is the A'set bookkeeping of one candidate gate (Figure 7/9): the
// perturbed delay overlays, the live perturbed nodes, the nodes pending
// computation at later levels, and the current bound.
type front struct {
	gate   netlist.GateID
	delays map[graph.EdgeID]*dist.Dist

	live    map[graph.NodeID]liveNode
	pending map[graph.NodeID]struct{}
	levels  int // levels advanced so far (for the heuristic cutoff)

	smx      float64
	sinkDist *dist.Dist // set once the sink is computed
	visits   int
}

// liveNode is one perturbed arrival on a front: the persisted
// distribution, its perturbation bound Δ, and the number of fanouts
// that have yet to consume it.
type liveNode struct {
	pert   *dist.Dist
	delta  float64
	foLeft int
}

// newFront builds and initializes a candidate's front, propagating
// through the candidate gate's own level exactly as Initialize does.
// ar is the kernel scratch arena of the calling worker; the front
// itself retains only persisted (heap) distributions, so fronts built
// on different arenas mix freely in one heap afterwards.
func newFront(a *ssta.Analysis, cfg Config, x netlist.GateID, ar *dist.Arena) (*front, error) {
	d := a.D
	delays, err := a.PerturbedDelays(x, d.Width(x)+d.Lib.DeltaW)
	if err != nil {
		return nil, err
	}
	f := &front{
		gate:    x,
		delays:  delays,
		live:    make(map[graph.NodeID]liveNode),
		pending: make(map[graph.NodeID]struct{}),
	}
	g := d.E.G
	for _, gid := range ssta.AffectedGates(d, x) {
		f.pending[d.E.NodeOf[d.NL.Gate(gid).Out]] = struct{}{}
	}
	// Initialize propagates up to and including the candidate's output
	// level so every front starts with a meaningful bound (Figure 7,
	// steps 4–6).
	ownLevel := g.Level(d.E.NodeOf[d.NL.Gate(x).Out])
	for !f.dead() {
		if level, _ := f.nextLevel(g); level > ownLevel {
			break
		}
		f.propagateOneLevel(a, cfg, ar)
	}
	return f, nil
}

// dead reports whether the front has nothing left to compute.
func (f *front) dead() bool { return len(f.pending) == 0 }

// nextLevel returns the lowest level holding pending nodes, and those
// nodes in no particular order.
func (f *front) nextLevel(g *graph.Graph) (int, []graph.NodeID) {
	level := math.MaxInt
	var nodes []graph.NodeID
	for n := range f.pending {
		switch l := g.Level(n); {
		case l < level:
			level, nodes = l, append(nodes[:0], n)
		case l == level:
			nodes = append(nodes, n)
		}
	}
	return level, nodes
}

// propagateOneLevel computes the perturbed arrivals of every node
// pending at the front's lowest level, in node-ID order (Figure 9),
// updates the perturbation bounds and remaining-fanout counts, queues
// fanouts, and recomputes Smx. Kernel intermediates cycle through ar
// per node; whatever the front retains (perturbed arrivals, the sink)
// is persisted out of scratch first.
func (f *front) propagateOneLevel(a *ssta.Analysis, cfg Config, ar *dist.Arena) {
	g := a.D.E.G
	sink := g.Sink()
	_, nodes := f.nextLevel(g)
	slices.Sort(nodes)

	arrOverlay := func(n graph.NodeID) *dist.Dist { return f.live[n].pert }
	delayOverlay := func(e graph.EdgeID) *dist.Dist { return f.delays[e] }

	for _, n := range nodes {
		delete(f.pending, n)
		ar.Reset()
		pert := a.ArrivalWithOverlayInto(n, arrOverlay, delayOverlay, ar)
		f.visits++
		base := a.Arrival(n)
		alive := true
		if !cfg.DisableDeadFrontElision && dist.ApproxEqual(pert, base, 0) {
			// The perturbation cancelled exactly on this node (an
			// unperturbed fanin dominates the max); nothing downstream
			// of it can ever differ. All perturbed parents are at lower
			// levels and final, so this elision is exact.
			alive = false
		}
		if n == sink {
			f.sinkDist = pert.Persist()
			alive = false
		}
		if alive {
			f.live[n] = liveNode{
				pert:   pert.Persist(),
				delta:  dist.PerturbationBound(base, pert),
				foLeft: len(g.Out(n)),
			}
			for _, eid := range g.Out(n) {
				f.pending[g.EdgeAt(eid).To] = struct{}{}
			}
		}
		// Consume one fanout slot of every perturbed fanin (Figure 9,
		// steps 13–18); fully consumed nodes leave the front.
		for _, eid := range g.In(n) {
			from := g.EdgeAt(eid).From
			l, ok := f.live[from]
			if !ok {
				continue
			}
			if l.foLeft--; l.foLeft == 0 {
				delete(f.live, from)
			} else {
				f.live[from] = l
			}
		}
	}
	f.levels++

	// Smx = max Δi over the live front (Theorem 4): an upper bound on
	// the eventual sink perturbation.
	f.smx = 0
	for _, l := range f.live {
		if l.delta > f.smx {
			f.smx = l.delta
		}
	}
}

// frontHeap is a max-heap over Smx (ties: lower gate ID first).
type frontHeap []*front

func (h frontHeap) Len() int { return len(h) }
func (h frontHeap) Less(i, j int) bool {
	if h[i].smx != h[j].smx {
		return h[i].smx > h[j].smx
	}
	return h[i].gate < h[j].gate
}
func (h frontHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *frontHeap) Push(x any)   { *h = append(*h, x.(*front)) }
func (h *frontHeap) Pop() any {
	old := *h
	f := old[len(old)-1]
	*h = old[:len(old)-1]
	return f
}

// acceleratedIteration is the inner loop of Figure 6 (steps 3–21): find
// the most sensitive gates without propagating every candidate to the
// sink. The warm-start hint (the previous iteration's winner) is
// propagated to the sink before anything else, so Max_S starts high and
// prunes from the first heap pop; this only reorders evaluation and
// cannot change the result.
func acceleratedIteration(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, hint netlist.GateID, ws []*ssta.Scratch) (innerResult, error) {
	d := a.D
	deltaW := d.Lib.DeltaW
	var ir innerResult

	// Front initialization is independent per candidate — each front owns
	// its overlay maps and only reads the base analysis (PerturbedDelays
	// is mutation-free) — so the fronts build concurrently, each in its
	// worker's scratch arena. The merge below runs in candidate order,
	// never completion order: the heap receives the same fronts in the
	// same sequence as the historical serial loop, so trajectories stay
	// bit-identical at any parallelism.
	cands := candidateGates(d)
	fronts := make([]*front, len(cands))
	err := par.RunIndexed(ctx, len(ws), len(cands), func(w, i int) error {
		f, err := newFront(a, cfg, cands[i], ws[w].Arena())
		if err != nil {
			return err
		}
		fronts[i] = f
		return nil
	})
	if err != nil {
		// par.Run already prefers the lowest-index evaluation error over
		// a bare cancellation, matching the serial loop's reporting.
		return ir, err
	}
	// Fronts retain only persisted heap distributions, never arena
	// views, so the serial heap loop reuses worker 0's arena.
	loopArena := ws[0].Arena()
	h := make(frontHeap, 0, len(cands))
	var hintFront *front
	for i, f := range fronts {
		ir.considered++
		ir.nodesVisited += f.visits
		f.visits = 0
		if cands[i] == hint {
			hintFront = f
			continue
		}
		heap.Push(&h, f)
	}

	top := newTopK(cfg.MultiSize)
	finish := func(f *front) {
		sens := 0.0
		if f.sinkDist != nil {
			sens = (base - cfg.Objective.Eval(f.sinkDist)) / deltaW
		} else {
			// The perturbation died out before the sink: the sensitivity
			// is exactly zero and the front stopped early — count it with
			// the pruning wins.
			ir.pruned++
		}
		top.offer(pick{gate: f.gate, sens: sens})
	}

	if hintFront != nil {
		for !hintFront.dead() {
			// The hint front runs to the sink outside the heap's pop loop
			// and its pruning checks, so cancellation must be observed
			// here: one level of one front is the latency bound.
			if err := ctx.Err(); err != nil {
				return ir, err
			}
			hintFront.propagateOneLevel(a, cfg, loopArena)
			ir.nodesVisited += hintFront.visits
			hintFront.visits = 0
		}
		finish(hintFront)
	}

	pops := 0
	for h.Len() > 0 {
		if pops%64 == 0 {
			if err := ctx.Err(); err != nil {
				return ir, err
			}
		}
		pops++
		f := heap.Pop(&h).(*front)
		// Pruning (Figure 6, step 20): the heap maximum's front bound
		// Smx = Δmx/Δw dominates every remaining candidate's true
		// sensitivity, so once it falls below the MultiSize-th exact
		// sensitivity nothing left can win.
		if !cfg.DisablePruning && f.smx/deltaW < top.kthSens()-pruneSlack {
			ir.pruned += 1 + h.Len()
			break
		}
		if f.dead() {
			finish(f)
			continue
		}
		if cfg.HeuristicLevels > 0 && f.levels >= cfg.HeuristicLevels {
			// Future-work heuristic: accept the bound as the sensitivity
			// estimate without reaching the sink.
			top.offer(pick{gate: f.gate, sens: f.smx / deltaW})
			ir.pruned++
			continue
		}
		f.propagateOneLevel(a, cfg, loopArena)
		ir.nodesVisited += f.visits
		f.visits = 0
		if f.dead() {
			finish(f)
			continue
		}
		heap.Push(&h, f)
	}
	ir.picks = top.sorted()
	if len(ir.picks) > 0 {
		ir.bestSens = ir.picks[0].sens
	}
	return ir, nil
}
