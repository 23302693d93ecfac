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
// perturbed delays, the live perturbed nodes, the nodes pending
// computation at later levels, and the current bound.
//
// A front computes through the scratch of the worker that built it, for
// its whole life: its arena for kernel intermediates, its dense
// overlays for each level step, and its recycler for the live arrivals
// and the sink. Fronts are built in parallel, one worker's scratch each,
// but stepped only by the serial heap loop after the build barrier, so
// no scratch ever serves two goroutines at once.
type front struct {
	gate   netlist.GateID
	sc     *ssta.Scratch
	delays []ssta.EdgeDelay

	live    []liveNode
	pending []graph.NodeID // sorted by (level, ID), without duplicates
	levels  int            // levels advanced so far (for the heuristic cutoff)

	smx      float64
	sinkDist *dist.Dist // set once the sink is computed; recycled storage
	visits   int
}

// liveNode is one perturbed arrival on a front: the distribution, held
// in the front's recycler (or, when it is a base arrival, by pointer),
// its perturbation bound Δ, and the level of its last fanout — the
// level step that consumes it (Figure 9, steps 13–18). A node without
// fanouts is never consumed.
type liveNode struct {
	node  graph.NodeID
	pert  *dist.Dist
	delta float64
	until int
}

// newFront builds and initializes a candidate's front, propagating
// through the candidate gate's own level exactly as Initialize does. sc
// is the calling worker's scratch, which the front keeps (see front).
func newFront(a *ssta.Analysis, cfg Config, x netlist.GateID, sc *ssta.Scratch) (*front, error) {
	d := a.D
	delays, err := a.PerturbedDelays(x, d.Width(x)+d.Lib.DeltaW)
	if err != nil {
		return nil, err
	}
	f := &front{gate: x, sc: sc, delays: delays}
	g := d.E.G
	for _, gid := range ssta.AffectedGates(d, x) {
		f.queue(g, d.E.NodeOf[d.NL.Gate(gid).Out])
	}
	// Initialize propagates up to and including the candidate's output
	// level so every front starts with a meaningful bound (Figure 7,
	// steps 4–6).
	ownLevel := g.Level(d.E.NodeOf[d.NL.Gate(x).Out])
	for !f.dead() && f.nextLevel(g) <= ownLevel {
		f.propagateOneLevel(a, cfg)
	}
	return f, nil
}

// dead reports whether the front has nothing left to compute.
func (f *front) dead() bool { return len(f.pending) == 0 }

// nextLevel returns the lowest level holding pending nodes.
func (f *front) nextLevel(g *graph.Graph) int { return g.Level(f.pending[0]) }

// queue adds n to the pending nodes unless it is already there.
func (f *front) queue(g *graph.Graph, n graph.NodeID) {
	l := g.Level(n)
	lo, hi := 0, len(f.pending)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p := f.pending[m]; g.Level(p) < l || (g.Level(p) == l && p < n) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(f.pending) && f.pending[lo] == n {
		return
	}
	f.pending = slices.Insert(f.pending, lo, n)
}

// propagateOneLevel computes the perturbed arrivals of every node
// pending at the front's lowest level, in node-ID order (Figure 9),
// updates the perturbation bounds, queues fanouts, retires the live
// nodes whose last fanout this level consumed, and recomputes Smx.
//
// The step loads the live arrivals and perturbed delays into the
// scratch overlays and clears exactly those entries before returning,
// so the overlays are all-nil between steps. Kernel intermediates cycle
// through the arena per node; what the front retains (live arrivals,
// the sink) is kept in the recycler, and a retired node's storage goes
// straight back to it.
func (f *front) propagateOneLevel(a *ssta.Analysis, cfg Config) {
	g := a.D.E.G
	sink := g.Sink()
	ar, rec := f.sc.Arena(), f.sc.Recycler()
	arrOv, delayOv := a.Overlays(f.sc)
	for _, l := range f.live {
		arrOv[l.node] = l.pert
	}
	for _, ed := range f.delays {
		delayOv[ed.Edge] = ed.Delay
	}

	// The level's nodes head pending, in ID order. Fanouts queued below
	// sit at higher levels, so they insert behind this prefix and never
	// disturb it.
	level := f.nextLevel(g)
	k := 1
	for k < len(f.pending) && g.Level(f.pending[k]) == level {
		k++
	}
	for _, n := range f.pending[:k] {
		ar.Reset()
		pert := a.ArrivalWithOverlayInto(n, f.sc)
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
			f.sinkDist = rec.Keep(pert)
			alive = false
		}
		if alive {
			until := -1
			for _, eid := range g.Out(n) {
				to := g.EdgeAt(eid).To
				f.queue(g, to)
				until = max(until, g.Level(to))
			}
			if until < 0 {
				until = math.MaxInt
			}
			f.live = append(f.live, liveNode{
				node:  n,
				pert:  rec.Keep(pert),
				delta: dist.PerturbationBound(base, pert),
				until: until,
			})
		}
	}
	f.pending = slices.Delete(f.pending, 0, k)
	f.levels++

	for _, ed := range f.delays {
		delayOv[ed.Edge] = nil
	}
	// Every fanout of a node whose last fanout sits at this level has
	// now consumed it (Figure 9, steps 13–18): it leaves the front.
	// Smx = max Δi over the remaining live front (Theorem 4) is an upper
	// bound on the eventual sink perturbation.
	f.smx = 0
	kept := f.live[:0]
	for _, l := range f.live {
		arrOv[l.node] = nil
		if l.until <= level {
			rec.Drop(l.pert)
			continue
		}
		f.smx = max(f.smx, l.delta)
		kept = append(kept, l)
	}
	clear(f.live[len(kept):])
	f.live = kept
}

// release hands the front's storage back to its recycler — the sink and
// every live arrival — once the front is finished or pruned. It is
// idempotent.
func (f *front) release() {
	rec := f.sc.Recycler()
	if f.sinkDist != nil {
		rec.Drop(f.sinkDist)
		f.sinkDist = nil
	}
	for _, l := range f.live {
		rec.Drop(l.pert)
	}
	f.live = nil
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

	// Fronts load and clear their own overlay entries per level step, so
	// every worker's overlays must start all-nil; commits and what-ifs
	// leave entries behind.
	for _, sc := range ws {
		arr, delay := a.Overlays(sc)
		clear(arr)
		clear(delay)
	}
	// Front initialization is independent per candidate — each front
	// only reads the base analysis (PerturbedDelays is mutation-free) —
	// so the fronts build concurrently, each in its worker's scratch.
	// The merge below runs in candidate order, never completion order:
	// the heap receives the same fronts in the same sequence as the
	// historical serial loop, so trajectories stay bit-identical at any
	// parallelism.
	cands := candidateGates(d)
	fronts := make([]*front, len(cands))
	// Finished fronts release their storage as they retire; this hands
	// back the rest — pruned fronts, and every front on an error path —
	// so no recycler holds anything once the iteration returns.
	defer func() {
		for _, f := range fronts {
			if f != nil {
				f.release()
			}
		}
	}()
	err := par.RunIndexed(ctx, len(ws), len(cands), func(w, i int) error {
		f, err := newFront(a, cfg, cands[i], ws[w])
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
		f.release()
	}

	if hintFront != nil {
		for !hintFront.dead() {
			// The hint front runs to the sink outside the heap's pop loop
			// and its pruning checks, so cancellation must be observed
			// here: one level of one front is the latency bound.
			if err := ctx.Err(); err != nil {
				return ir, err
			}
			hintFront.propagateOneLevel(a, cfg)
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
			f.release()
			continue
		}
		f.propagateOneLevel(a, cfg)
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
