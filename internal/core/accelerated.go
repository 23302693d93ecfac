package core

import (
	"container/heap"
	"context"
	"math"
	"slices"

	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
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
// The inner loop (Figure 6, steps 6–21) advances the fronts with the
// largest bounds level by level, in rounds that step up to roundSize
// fronts on the session's workers at once. When a front reaches the
// sink, its exact sensitivity updates Max_S; any front whose bound falls
// below Max_S is discarded without further propagation. On a percentile
// objective, whose improvements come in whole grid steps, so is a front
// whose bound can at best tie Max_S from a higher gate ID, since ties go
// to the lower ID. The surviving argmax is identical to the brute-force
// result.
func Accelerated(ctx context.Context, s *session.Session, cfg Config) (*Result, error) {
	return statisticalDescent(ctx, s, cfg, "accelerated", acceleratedIteration)
}

// roundSize bounds the fronts one round of the heap loop steps at once.
// It is a constant, not the worker count, so which fronts step — and
// with them the visited and pruned counts — never depends on the
// parallelism; a round of one is the one-pop-one-level serial loop.
const roundSize = 8

// front is the A'set bookkeeping of one candidate gate (Figure 7/9): the
// perturbed delays, the live perturbed nodes, the nodes pending
// computation at later levels, and the current bound.
//
// A front owns no scratch. Each level step computes through the scratch
// of the worker the pool runs it on — its arena for kernel
// intermediates, its dense overlays, its recycler for what the step
// keeps — and every kept value records that worker's id, its keeper.
// One worker steps a front at a time (the build, then one per round),
// and the iteration's caller touches fronts only between barriers, so
// no scratch ever serves two goroutines at once (see worker.drop for
// values kept elsewhere).
type front struct {
	gate   netlist.GateID
	delays []ssta.EdgeDelay

	live    []liveNode
	pending []graph.NodeID // sorted by (level, ID), without duplicates
	levels  int            // levels advanced so far (for the heuristic cutoff)

	smx        float64
	sinkDist   dist.Kept // set once the sink is computed
	sinkKeeper int32     // worker whose recycler kept sinkDist
	visits     int
}

// liveNode is one perturbed arrival on a front: the distribution, held
// in its keeper worker's recycler (or, when it is a base arrival, by
// pointer), its perturbation bound Δ, and the level of its last fanout
// — the level step that consumes it (Figure 9, steps 13–18). A node
// without fanouts is never consumed. The keeper sits in what would be
// padding after node, so the struct stays 32 bytes.
type liveNode struct {
	node   graph.NodeID
	keeper int32
	pert   dist.Kept
	delta  float64
	until  int
}

// newFront builds and initializes a candidate's front on worker w,
// propagating through the candidate gate's own level exactly as
// Initialize does.
func newFront(a *ssta.Analysis, cfg Config, x netlist.GateID, w *worker) (*front, error) {
	d := a.D
	delays, err := a.PerturbedDelays(x, d.Width(x)+d.Lib.DeltaW)
	if err != nil {
		return nil, err
	}
	f := &front{gate: x, delays: delays}
	g := d.E.G
	for _, gid := range ssta.AffectedGates(d, x) {
		f.queue(g, d.E.NodeOf[d.NL.Gate(gid).Out])
	}
	// Initialize propagates up to and including the candidate's output
	// level so every front starts with a meaningful bound (Figure 7,
	// steps 4–6).
	ownLevel := g.Level(d.E.NodeOf[d.NL.Gate(x).Out])
	for !f.dead() && f.nextLevel(g) <= ownLevel {
		f.propagateOneLevel(a, cfg, w)
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

// propagateOneLevel computes, on worker w, the perturbed arrivals of
// every node pending at the front's lowest level, in node-ID order
// (Figure 9), updates the perturbation bounds, queues fanouts, retires
// the live nodes whose last fanout this level consumed, and recomputes
// Smx.
//
// The step loads the live arrivals and perturbed delays into w's
// scratch overlays and clears exactly those entries before returning,
// so the overlays are all-nil between steps. Kernel intermediates cycle
// through w's arena per node; what the front retains (live arrivals,
// the sink) is kept in w's recycler with keeper w, and a retired node's
// storage goes back through worker.drop.
func (f *front) propagateOneLevel(a *ssta.Analysis, cfg Config, w *worker) {
	g := a.D.E.G
	sink := g.Sink()
	sc := w.sc
	ar, rec := sc.Arena(), sc.Recycler()
	arrOv, delayOv := a.Overlays(sc)
	for _, l := range f.live {
		arrOv[l.node] = l.pert.Dist()
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
		pert := a.ArrivalWithOverlayInto(n, sc)
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
			f.sinkDist, f.sinkKeeper = rec.Keep(pert), w.id
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
				node:   n,
				keeper: w.id,
				pert:   rec.Keep(pert),
				delta:  dist.PerturbationBound(base, pert),
				until:  until,
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
			w.drop(l)
			continue
		}
		f.smx = max(f.smx, l.delta)
		kept = append(kept, l)
	}
	clear(f.live[len(kept):])
	f.live = kept
}

// advance steps f on worker w, level by level, for as long as the serial
// loop would keep popping it: until it dies, stops ranking above tau
// (the best front left in the heap, nil when it is empty), turns
// prunable against kth (the round-start k-th pick: Max_S and its gate)
// on the objective's grid step, or reaches the heuristic cutoff.
// Prunable includes the tie rule, so a front that can at best tie kth
// stops too. The first step is unconditional: the caller popped f only
// because it needs one. No worker steps tau, so reading it is safe.
func (f *front) advance(a *ssta.Analysis, cfg Config, w *worker, tau *front, kth pick, step float64) {
	for {
		f.propagateOneLevel(a, cfg, w)
		if f.dead() || f.prunable(cfg, a.D.Lib.DeltaW, step, kth) || f.atCutoff(cfg) || (tau != nil && !f.above(tau)) {
			return
		}
	}
}

// prunable reports whether f can no longer enter the picks, whose k-th
// best so far is kth (Figure 6, step 20). Either its bound Smx/Δw falls
// below kth's sensitivity by more than pruneSlack, or, when the
// objective moves on a grid of step > 0 (a percentile), f can at best
// tie kth: its gap f.smx is at most kth's improvement in whole steps
// (f.smx ≤ kth.sens·Δw + step/2) and its gate ID is above kth's, so
// better hands the tie to kth. Both rules rest on pruneSlack's
// whole-step premise. Mean and user objectives pass step 0 and keep the
// strict rule alone.
func (f *front) prunable(cfg Config, deltaW, step float64, kth pick) bool {
	if cfg.DisablePruning {
		return false
	}
	if f.smx/deltaW < kth.sens-pruneSlack {
		return true
	}
	return step > 0 && f.gate > kth.gate && f.smx <= kth.sens*deltaW+step/2
}

// atCutoff reports whether f has advanced as many levels as the
// heuristic allows.
func (f *front) atCutoff(cfg Config) bool {
	return cfg.HeuristicLevels > 0 && f.levels >= cfg.HeuristicLevels
}

// above reports whether f ranks above o in the heap's order: Smx
// descending, ties to the lower gate ID.
func (f *front) above(o *front) bool {
	if f.smx != o.smx {
		return f.smx > o.smx
	}
	return f.gate < o.gate
}

// release hands the front's storage back to the recyclers that kept it
// — the sink and every live arrival — once the front is finished or
// pruned. It runs on the iteration's caller between barriers, and it is
// idempotent.
func (f *front) release(c *crew) {
	c.keeper(f.sinkKeeper).Drop(f.sinkDist)
	f.sinkDist = dist.Kept{}
	for _, l := range f.live {
		c.keeper(l.keeper).Drop(l.pert)
	}
	f.live = nil
}

// keeper returns the recycler of the worker with the given id, for the
// caller's drops between barriers.
func (c *crew) keeper(id int32) *dist.Recycler { return c.workers[id].sc.Recycler() }

// drop hands back a live value that w's step consumed: straight to w's
// recycler when w kept it; otherwise onto w's foreign list, because the
// keeper's recycler may be serving another front's step right now. The
// caller empties the lists after the round's barrier (crew.drain).
func (w *worker) drop(l liveNode) {
	if l.keeper == w.id {
		w.sc.Recycler().Drop(l.pert)
		return
	}
	w.foreign = append(w.foreign, l)
}

// drain drops every value on the workers' foreign lists through its
// keeper's recycler. It runs on the caller after a barrier, when no
// worker steps.
func (c *crew) drain() {
	for _, w := range c.workers {
		for _, l := range w.foreign {
			c.keeper(l.keeper).Drop(l.pert)
		}
		clear(w.foreign)
		w.foreign = w.foreign[:0]
	}
}

// frontHeap is a max-heap over Smx (ties: lower gate ID first).
type frontHeap []*front

func (h frontHeap) Len() int { return len(h) }
func (h frontHeap) Less(i, j int) bool {
	return h[i].above(h[j])
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
// sink.
//
// The loop runs in rounds. The caller pops up to roundSize fronts in
// (Smx, gate) order and handles each pop as the one-front loop would: a
// dead front finishes, a front at the heuristic cutoff offers its bound,
// and a prunable head ends the popping — and the iteration, pruning
// every front left, when it is the round's first pop. That holds under
// the tie rule too (front.prunable), because every front below a
// prunable head is prunable: one with a lower Smx sits at least a whole
// grid step lower, so it cannot even tie the k-th pick, and one with an
// equal Smx carries a higher gate ID, so it loses the tie as well.
// While fewer than MultiSize fronts have finished there is no Max_S to
// prune against, so a round takes a single front. The crew's workers
// then advance the taken fronts at once, each against the round-start τ
// and k-th pick (front.advance), and after the barrier the caller
// merges them back in pop order. Which fronts a round takes and how far
// each steps depend on the heap alone, never on the worker count, so the
// trace is the same at every parallelism, and a round of one is exactly
// the serial one-pop-one-level loop. The picks are exact at any round size: a
// front is discarded only once the heap maximum is prunable.
//
// The warm-start hint (the previous iteration's winner) is propagated to
// the sink before anything else, so Max_S starts high and prunes from
// the first round; this only reorders evaluation and cannot change the
// result. Cancellation is observed per level of the hint front and per
// round, so its latency is one round: at most one front run to the sink.
func acceleratedIteration(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, hint netlist.GateID, c *crew) (innerResult, error) {
	d := a.D
	deltaW := d.Lib.DeltaW
	var ir innerResult

	// Fronts load and clear their own overlay entries per level step, so
	// every worker's overlays must start all-nil; commits and what-ifs
	// leave entries behind.
	for _, w := range c.workers {
		arr, delay := a.Overlays(w.sc)
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
	// Finished fronts release their storage as they retire; this empties
	// the foreign lists and hands back the rest — pruned fronts, and
	// every front on an error path — so no recycler holds anything once
	// the iteration returns.
	defer func() {
		c.drain()
		for _, f := range fronts {
			if f != nil {
				f.release(c)
			}
		}
	}()
	err := c.pool.Run(ctx, len(cands), func(w *worker, i int) error {
		f, err := newFront(a, cfg, cands[i], w)
		if err != nil {
			return err
		}
		fronts[i] = f
		return nil
	})
	if err != nil {
		// The pool already prefers the lowest-index evaluation error over
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

	// A percentile of a grid distribution is a grid point, so candidate
	// improvements come in whole steps of a.DT and tied improvements
	// tie bit for bit: the tie rule of prunable applies. Other objectives
	// have no step.
	step := 0.0
	if _, ok := cfg.Objective.(Percentile); ok {
		step = a.DT
	}
	top := newTopK(cfg.MultiSize)
	finish := func(f *front) {
		sens := 0.0
		if sink := f.sinkDist.Dist(); sink != nil {
			sens = (base - cfg.Objective.Eval(sink)) / deltaW
		} else {
			// The perturbation died out before the sink: the sensitivity
			// is exactly zero and the front stopped early — count it with
			// the pruning wins.
			ir.pruned++
		}
		top.offer(pick{gate: f.gate, sens: sens})
		f.release(c)
	}

	if hintFront != nil {
		// The hint front runs to the sink outside the rounds and their
		// pruning checks, on this goroutine as worker 0 while no other
		// worker steps, so cancellation must be observed here: one level
		// of one front is the latency bound.
		for !hintFront.dead() {
			if err := ctx.Err(); err != nil {
				return ir, err
			}
			hintFront.propagateOneLevel(a, cfg, c.workers[0])
			ir.nodesVisited += hintFront.visits
			hintFront.visits = 0
		}
		c.drain()
		finish(hintFront)
	}

	batch := make([]*front, 0, roundSize)
rounds:
	for h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return ir, err
		}
		batch = batch[:0]
		for h.Len() > 0 && len(batch) < roundSize && (len(batch) == 0 || top.full()) {
			f := heap.Pop(&h).(*front)
			// Pruning (Figure 6, step 20): the heap maximum's front bound
			// Smx = Δmx/Δw dominates every remaining candidate's true
			// sensitivity, so once it falls below the MultiSize-th exact
			// sensitivity, or can at best tie it and lose the tie, nothing
			// left can win. Fronts this round already took rank above it
			// and step first.
			if f.prunable(cfg, deltaW, step, top.kth()) {
				if len(batch) == 0 {
					ir.pruned += 1 + h.Len()
					break rounds
				}
				heap.Push(&h, f)
				break
			}
			if f.dead() {
				finish(f)
				continue
			}
			if f.atCutoff(cfg) {
				// Future-work heuristic: accept the bound as the sensitivity
				// estimate without reaching the sink.
				top.offer(pick{gate: f.gate, sens: f.smx / deltaW})
				ir.pruned++
				f.release(c)
				continue
			}
			batch = append(batch, f)
		}
		if len(batch) == 0 {
			break
		}
		// τ and Max_S hold still for the round: only the merge below
		// changes the heap and the picks.
		var tau *front
		if h.Len() > 0 {
			tau = h[0]
		}
		kth := top.kth()
		err := c.pool.Run(ctx, len(batch), func(w *worker, i int) error {
			batch[i].advance(a, cfg, w, tau, kth, step)
			return nil
		})
		c.drain()
		if err != nil {
			return ir, err
		}
		for _, f := range batch {
			ir.nodesVisited += f.visits
			f.visits = 0
			if f.dead() {
				finish(f)
				continue
			}
			heap.Push(&h, f)
		}
	}
	ir.picks = top.sorted()
	if len(ir.picks) > 0 {
		ir.bestSens = ir.picks[0].sens
	}
	return ir, nil
}
