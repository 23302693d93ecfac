package core

import (
	"context"
	"fmt"
	"time"

	"statsize/internal/dist"
	"statsize/internal/netlist"
	"statsize/internal/par"
	"statsize/internal/session"
	"statsize/internal/ssta"
)

// BruteForce runs exact statistical sizing as described in Section 3.1:
// every iteration evaluates every candidate gate's sensitivity with a
// complete SSTA propagation of its perturbation to the sink — the
// O(N·E)-per-iteration reference the accelerated algorithm is measured
// against in Table 2, and the ground truth its results must match
// exactly.
func BruteForce(ctx context.Context, s *session.Session, cfg Config) (*Result, error) {
	return statisticalDescent(ctx, s, cfg, "brute-force", bruteForceIteration)
}

// statisticalDescent is the outer coordinate-descent loop shared by the
// brute-force and accelerated sizers, driving a session: per iteration
// it finds the most sensitive gates via `inner` over the session's live
// analysis, then sizes them up through the session's incremental
// commit. The previous iteration's winner is passed down as a
// warm-start hint — the paper notes that identifying a high-sensitivity
// gate early lets it prune many inferior candidates, and the just-sized
// gate is usually still near the top. The hint only reorders evaluation;
// results are unchanged.
//
// The run is one Session.Do: it holds the session for its whole
// duration, so concurrent session calls block until it finishes. The
// run uses the analysis grid and the worker set the session was opened
// with: cfg.Bins, cfg.DT and cfg.Parallelism are construction-time
// parameters (see OpenSession) and are ignored here. Every candidate
// sweep of the run computes through the session's per-worker scratch
// (Tx.Scratch), one warm working set, on one pool of workers (crew).
//
// The context is checked between iterations and between candidate
// evaluations inside `inner`. On cancellation the Result built so far —
// every committed iteration, a consistent session state, the partial
// trace — is returned alongside an error wrapping context.Canceled (or
// DeadlineExceeded), so a canceled run is still a usable, smaller run.
func statisticalDescent(ctx context.Context, s *session.Session, cfg Config, method string, inner innerFunc) (*Result, error) {
	start := time.Now()
	var res *Result
	err := s.Do(func(tx *session.Tx) (err error) {
		res, err = descend(ctx, tx, cfg.withDefaults(), method, inner, start)
		return err
	})
	return res, err
}

// innerFunc is one iteration's sensitivity search: brute force or
// accelerated.
type innerFunc func(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, hint netlist.GateID, c *crew) (innerResult, error)

// crew is the session's workers as one optimizer run drives them: one
// scratch each (Tx.Scratch), the pool that runs them, and per worker
// the consumed front values another worker kept, which wait there for
// the caller to drop them after a barrier (see crew.drop).
type crew struct {
	ws      []*ssta.Scratch
	pool    *par.Pool
	foreign [][]liveNode
}

// newCrew starts a pool with one worker per scratch in ws. The caller
// must close it.
func newCrew(ws []*ssta.Scratch) *crew {
	return &crew{ws: ws, pool: par.NewPool(len(ws)), foreign: make([][]liveNode, len(ws))}
}

// close stops the pool and releases every worker's recycler. Recycled
// front storage lives for one run, so an idle session retains none of
// it.
func (c *crew) close() {
	c.pool.Close()
	for _, sc := range c.ws {
		sc.Recycler().Release()
	}
}

// descend is statisticalDescent's run over the held session.
func descend(ctx context.Context, tx *session.Tx, cfg Config, method string, inner innerFunc, start time.Time) (*Result, error) {
	a := tx.Analysis()
	d := tx.Design()
	c := newCrew(tx.Scratch())
	defer c.close()
	res := &Result{
		Method:           method,
		InitialWidth:     d.TotalWidth(),
		InitialObjective: cfg.Objective.Eval(a.SinkDist()),
		Design:           d,
	}
	res.FinalObjective = res.InitialObjective

	partial := func(cause error) (*Result, error) {
		res.FinalWidth = d.TotalWidth()
		res.Elapsed = time.Since(start)
		return res, fmt.Errorf("core: %s optimization interrupted after %d iterations: %w",
			method, res.Iterations, cause)
	}

	hint := netlist.NoGate
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return partial(err)
		}
		if areaCapReached(cfg, res.InitialWidth, d.TotalWidth()) {
			break
		}
		iterStart := time.Now()
		base := cfg.Objective.Eval(a.SinkDist())
		ir, err := inner(ctx, a, cfg, base, hint, c)
		if err != nil {
			if ctx.Err() != nil {
				return partial(ctx.Err())
			}
			return nil, err
		}
		if len(ir.picks) == 0 || ir.bestSens <= cfg.Tolerance {
			break
		}
		var sized []netlist.GateID
		for _, p := range ir.picks {
			if p.sens <= cfg.Tolerance {
				continue
			}
			if _, err := tx.Resize(ctx, p.gate, d.Width(p.gate)+d.Lib.DeltaW); err != nil {
				if ctx.Err() != nil {
					return partial(ctx.Err())
				}
				return nil, err
			}
			sized = append(sized, p.gate)
		}
		if len(sized) == 0 {
			break
		}
		if !cfg.DisableWarmStart {
			hint = sized[0]
		}
		after := cfg.Objective.Eval(a.SinkDist())
		rec := IterRecord{
			Iter:                 iter,
			Gates:                sized,
			Sensitivity:          ir.bestSens,
			Objective:            after,
			TotalWidth:           d.TotalWidth(),
			CandidatesConsidered: ir.considered,
			CandidatesPruned:     ir.pruned,
			NodesVisited:         ir.nodesVisited,
			Elapsed:              time.Since(iterStart),
		}
		res.Records = append(res.Records, rec)
		res.Iterations++
		res.FinalObjective = after
		if cfg.OnIteration != nil {
			cfg.OnIteration(rec)
		}
	}
	res.FinalWidth = d.TotalWidth()
	res.Elapsed = time.Since(start)
	return res, nil
}

// pick is one gate selected for sizing with its exact sensitivity.
type pick struct {
	gate netlist.GateID
	sens float64
}

// innerResult is what one inner-loop sensitivity search reports.
type innerResult struct {
	picks        []pick // best gates in descending sensitivity
	bestSens     float64
	considered   int
	pruned       int
	nodesVisited int
}

// bruteForceIteration computes every candidate's exact sensitivity by a
// full overlay SSTA pass (Analysis.WhatIfFull) and returns the top
// MultiSize gates. Brute force evaluates everything anyway, so the hint
// is unused. The sweeps are independent — each candidate's pass owns
// its worker's scratch and only reads the base analysis — so they fan
// out across the session's workers; the top-k selection then merges in
// candidate order, never completion order, so the picks (including
// tie-breaks) are bit-identical to the serial sweep. Cancellation is
// checked per candidate — each one costs a full SSTA propagation, the
// natural granularity.
func bruteForceIteration(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, _ netlist.GateID, c *crew) (innerResult, error) {
	d := a.D
	var ir innerResult
	cands := candidateGates(d)
	type sweep struct {
		sink    *dist.Dist
		visited int
	}
	sweeps := make([]sweep, len(cands))
	// Each candidate's full pass computes in its worker's scratch; only
	// the persisted sink distribution escapes.
	err := c.pool.RunIndexed(ctx, len(cands), func(w, i int) error {
		x := cands[i]
		var err error
		sweeps[i].sink, sweeps[i].visited, err = a.WhatIfFull(x, d.Width(x)+d.Lib.DeltaW, c.ws[w])
		return err
	})
	if err != nil {
		// par.Run already prefers the lowest-index evaluation error over
		// a bare cancellation, matching the serial loop's reporting.
		return ir, err
	}
	// The user-supplied objective is evaluated here, in candidate order
	// on this goroutine — objectives carry no thread-safety requirement.
	top := newTopK(cfg.MultiSize)
	for i, s := range sweeps {
		ir.considered++
		ir.nodesVisited += s.visited
		top.offer(pick{gate: cands[i], sens: (base - cfg.Objective.Eval(s.sink)) / d.Lib.DeltaW})
	}
	ir.picks = top.sorted()
	if len(ir.picks) > 0 {
		ir.bestSens = ir.picks[0].sens
	}
	return ir, nil
}

// topK keeps the k best picks by (sensitivity desc, gate ID asc) — the
// deterministic tie-break every optimizer variant shares.
type topK struct {
	k     int
	items []pick
}

func newTopK(k int) *topK { return &topK{k: k} }

func (t *topK) offer(p pick) {
	pos := len(t.items)
	for pos > 0 && better(p, t.items[pos-1]) {
		pos--
	}
	if pos >= t.k {
		return
	}
	t.items = append(t.items, pick{})
	copy(t.items[pos+1:], t.items[pos:])
	t.items[pos] = p
	if len(t.items) > t.k {
		t.items = t.items[:t.k]
	}
}

func (t *topK) sorted() []pick { return t.items }

// full reports whether k candidates have finished, so that kthSens is a
// threshold to prune against.
func (t *topK) full() bool { return len(t.items) >= t.k }

// kth returns the k-th best pick so far — the one a candidate must beat
// to enter the picks, and so the pruning threshold — or a pick of
// negative-infinity sensitivity while fewer than k candidates have
// finished.
func (t *topK) kth() pick {
	if !t.full() {
		return pick{gate: netlist.NoGate, sens: negInf}
	}
	return t.items[len(t.items)-1]
}

const negInf = -1e308

func better(a, b pick) bool {
	if a.sens != b.sens {
		return a.sens > b.sens
	}
	return a.gate < b.gate
}
