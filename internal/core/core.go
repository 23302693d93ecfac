// Package core implements the paper's contribution: sensitivity-based
// statistical gate sizing by coordinate descent. One descent loop
// (descend) serves three sizers that differ only in the objective they
// minimize and in how one iteration scores its candidates —
//
//   - Deterministic: the Section 4 baseline. Nominal (corner) delays,
//     candidates restricted to the critical path, sensitivity = change
//     in nominal circuit delay per width step.
//   - BruteForce: exact statistical sizing. Every candidate gate's
//     sensitivity is the change in the objective (default: 99-percentile
//     of the circuit-delay CDF) obtained by a full SSTA propagation of
//     its perturbation — O(N·E) per sizing iteration (Section 3.1).
//   - Accelerated: the paper's pruning algorithm (Figures 6, 7, 9).
//     Perturbation fronts propagate level by level in best-first order
//     of their bound Smx = Δmx/Δw; Theorems 1–4 guarantee Smx can only
//     shrink and always bounds the true sensitivity, so any candidate
//     whose bound falls below the best exact sensitivity seen so far
//     (Max_S) is pruned without reaching the sink. Results are identical
//     to BruteForce.
//
// All three mutate the design's widths in place and report per-iteration
// traces (area, objective, pruning statistics) from which the paper's
// Tables 1–2 and Figure 10 are regenerated.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/netlist"
	"statsize/internal/par"
	"statsize/internal/session"
	"statsize/internal/ssta"
)

// Objective maps the circuit-delay distribution at the sink to the
// scalar being minimized. The perturbation-bound theory holds for any
// objective that cannot improve by more than the maximum percentile
// improvement Δ — true for every percentile and for the mean. It is the
// same interface sessions are opened with, so one objective value
// configures both.
type Objective = session.Objective

// Percentile is the p-quantile objective; the paper uses 0.99.
type Percentile float64

// Eval returns the p-quantile of the sink distribution.
func (p Percentile) Eval(s *dist.Dist) float64 { return s.Percentile(float64(p)) }

func (p Percentile) String() string { return fmt.Sprintf("p%g", 100*float64(p)) }

// Mean is the expected-delay objective.
type Mean struct{}

// Eval returns the mean of the sink distribution.
func (Mean) Eval(s *dist.Dist) float64 { return s.Mean() }

func (Mean) String() string { return "mean" }

// pruneSlack absorbs float rounding between a candidate's true
// sensitivity and its perturbation-front bound. A candidate is pruned
// only when its bound is below Max_S by more than this, so pruning can
// never eliminate the argmax.
//
// On a percentile objective both sides live on the analysis grid: the
// bound Smx·Δw is a whole number of bins, because the gap is tracked in
// bins, and the objective is a grid point, so a candidate's improvement
// is a whole number of steps too. The ε probability slack of the gap and
// of the percentile cannot cost a fraction of a step. Both prune rules
// rest on one whole-step premise: a candidate's improvement, in grid
// steps, never exceeds its front's bound in grid steps, at any level
// (TestFrontBoundDominatesSensitivity checks it at every level step).
// Under that premise the slack only covers float rounding, and the tie
// rule of front.prunable may drop a front whose bound merely equals the
// k-th pick's improvement.
const pruneSlack = 1e-8

// Config controls one optimization run. The zero value selects the
// paper's protocol: 99-percentile objective, 600-bin grid, single gate
// per iteration.
type Config struct {
	// Objective to minimize; default Percentile(0.99).
	Objective Objective
	// Bins sets the SSTA grid resolution; default 600.
	Bins int
	// MaxIterations bounds the sizing iterations; default 1000 (the
	// paper sized for "over 1000 iterations").
	MaxIterations int
	// MaxAreaIncrease stops when TotalWidth exceeds the initial total by
	// this fraction (e.g. 0.25 = +25%); non-positive means unlimited.
	MaxAreaIncrease float64
	// MultiSize sizes the top-k gates per iteration (the paper notes the
	// algorithm "can be easily modified to size multiple gates");
	// default 1. The deterministic sizer ignores it and sizes one gate.
	MultiSize int
	// Parallelism bounds the worker pools of the parallel evaluation
	// paths: the session-opening SSTA pass, what-if batches, the
	// per-candidate sweeps inside the brute-force and accelerated inner
	// loops, and the accelerated heap loop's rounds, which step up to
	// eight perturbation fronts at once. Like Bins it is fixed when the
	// session opens (OpenSession): a run on an already-open session
	// sweeps with that session's workers. Candidate evaluation is
	// mutation-free, results merge in candidate (or heap pop) order,
	// a round's fronts are chosen from the heap alone, and
	// distributions are exact lattice operations, so the worker count
	// never changes any result — trajectories, visited and pruned
	// counts included, are bit-identical at every setting. Non-positive
	// means one worker per logical CPU; 1 forces fully serial
	// evaluation.
	Parallelism int
	// HeuristicLevels, when positive, stops each perturbation front
	// after this many levels and uses its bound Smx as an approximate
	// sensitivity — the fast heuristic the paper names as future work.
	// The exactness guarantee no longer applies.
	HeuristicLevels int
	// OnIteration, when non-nil, observes each completed iteration (used
	// to trace Figure 10 area-delay curves).
	OnIteration func(IterRecord)
}

func (c Config) withDefaults() Config {
	if c.Objective == nil {
		c.Objective = Percentile(0.99)
	}
	if c.Bins <= 0 {
		c.Bins = 600
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 1000
	}
	if c.MultiSize <= 0 {
		c.MultiSize = 1
	}
	return c
}

// IterRecord describes one completed sizing iteration. Its JSON form,
// the tags below, is a public contract: the daemon's SSE progress
// stream emits records in exactly this encoding and external clients
// parse it (TestIterRecordJSONGolden pins the bytes). Floats encode in
// Go's shortest round-trip form, which parses back to the identical
// bits, and Elapsed travels as integer nanoseconds.
type IterRecord struct {
	Iter        int              `json:"iter"`
	Gates       []netlist.GateID `json:"gates"`       // gates sized this iteration
	Sensitivity float64          `json:"sensitivity"` // best sensitivity found
	Objective   float64          `json:"objective"`   // objective value after sizing
	TotalWidth  float64          `json:"total_width"` // total gate size after sizing
	// Candidate statistics for Table 2.
	CandidatesConsidered int           `json:"candidates_considered"`
	CandidatesPruned     int           `json:"candidates_pruned"` // fronts retired before reaching the sink
	NodesVisited         int           `json:"nodes_visited"`     // perturbed-arrival computations
	Elapsed              time.Duration `json:"elapsed_ns"`
}

// MarshalJSON encodes the record by its tags, with nil Gates as []
// rather than null, so clients can index unconditionally.
func (r IterRecord) MarshalJSON() ([]byte, error) {
	type tagged IterRecord // the tags without this method
	if r.Gates == nil {
		r.Gates = []netlist.GateID{}
	}
	return json.Marshal(tagged(r))
}

// Result summarizes an optimization run.
type Result struct {
	Method           string
	InitialObjective float64
	FinalObjective   float64
	InitialWidth     float64
	FinalWidth       float64
	Iterations       int
	Records          []IterRecord
	Elapsed          time.Duration
	// Design is the design the optimizer sized: the session-owned design
	// (a private clone when the run went through an Engine). On
	// cancellation it holds the partially sized state that the trace in
	// Records describes. When the session outlives the run, later session
	// mutations keep writing to it — snapshot via Session.Snapshot for an
	// independent copy.
	Design *design.Design
}

// Improvement returns the relative objective improvement in percent —
// the quantity Table 1 reports between optimizers.
func (r *Result) Improvement() float64 {
	if r.InitialObjective == 0 {
		return 0
	}
	return 100 * (r.InitialObjective - r.FinalObjective) / r.InitialObjective
}

// AreaIncrease returns the relative total-width increase in percent
// (Table 1, column "% inc").
func (r *Result) AreaIncrease() float64 {
	if r.InitialWidth == 0 {
		return 0
	}
	return 100 * (r.FinalWidth - r.InitialWidth) / r.InitialWidth
}

// candidateGates returns the gates eligible for upsizing: everything not
// pinned at the maximum width. Order is ascending gate ID; ties in
// sensitivity resolve to the lowest ID in every optimizer so that
// trajectories are comparable.
func candidateGates(d *design.Design) []netlist.GateID {
	var out []netlist.GateID
	for g := 0; g < d.NL.NumGates(); g++ {
		gid := netlist.GateID(g)
		if d.Width(gid)+d.Lib.DeltaW <= d.Lib.WMax {
			out = append(out, gid)
		}
	}
	return out
}

// OpenSession opens an incremental timing session over d at the grid,
// objective and worker count the config resolves to — the single
// construction path shared by the Engine facade, the experiment harness
// and the tests, so an optimizer driven through a session opened here
// sees exactly the analysis it used to build for itself. rollup is the
// engine-wide accounting the session reports into; callers outside the
// Engine pass nil.
func OpenSession(ctx context.Context, d *design.Design, cfg Config, rollup *session.Counters) (*session.Session, error) {
	cfg = cfg.withDefaults()
	return session.Open(ctx, d, d.SuggestDT(cfg.Bins), cfg.Objective, cfg.Parallelism, rollup)
}

// areaCapReached reports whether the configured relative area budget is
// exhausted.
func areaCapReached(cfg Config, initial, current float64) bool {
	return cfg.MaxAreaIncrease > 0 && current >= initial*(1+cfg.MaxAreaIncrease)
}

// minSensitivity is the smallest sensitivity worth a width step: a pick
// at or below it is not sized, and an iteration that sizes nothing
// ends the descent.
const minSensitivity = 1e-9

// descend is the coordinate-descent loop all three sizers share. Per
// iteration it runs search over the session's live analysis to find the
// most sensitive gates, then sizes each up one width step through the
// session's incremental commit. objective is the quantity the descent
// minimizes — cfg.Objective on the sink for the statistical sizers, the
// nominal circuit delay for the deterministic one — read before every
// search as its base and after every commit for the trace. Nothing but
// the design and its analysis carries over from one iteration to the
// next, so a run of n iterations equals n runs of one.
//
// The run is one Session.Do: it holds the session for its whole
// duration, so concurrent session calls block until it finishes. The
// run uses the analysis grid and the worker set the session was opened
// with: cfg.Bins and cfg.Parallelism are construction-time parameters
// (see OpenSession) and are ignored here. Every candidate sweep of the
// run computes through the session's per-worker scratch (Tx.Scratch),
// one warm working set, on one pool of workers (crew).
//
// The context is checked between iterations and between candidate
// evaluations inside search. On cancellation the Result built so far —
// every committed iteration, a consistent session state, the partial
// trace — is returned alongside an error wrapping context.Canceled (or
// DeadlineExceeded), so a canceled run is still a usable, smaller run.
func descend(ctx context.Context, s *session.Session, cfg Config, method string,
	objective func(*ssta.Analysis, Config) float64, search innerFunc) (*Result, error) {
	start := time.Now()
	var res *Result
	err := s.Do(func(tx *session.Tx) (err error) {
		res, err = descendHeld(ctx, tx, cfg.withDefaults(), method, objective, search, start)
		return err
	})
	return res, err
}

// innerFunc is one iteration's sensitivity search over the analysis a,
// whose objective value is base.
type innerFunc func(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, c *crew) (innerResult, error)

// sinkObjective is the statistical sizers' objective: cfg.Objective on
// the circuit-delay distribution at the sink.
func sinkObjective(a *ssta.Analysis, cfg Config) float64 { return cfg.Objective.Eval(a.SinkDist()) }

// descendHeld is descend's run over the held session.
func descendHeld(ctx context.Context, tx *session.Tx, cfg Config, method string,
	objective func(*ssta.Analysis, Config) float64, search innerFunc, start time.Time) (*Result, error) {
	a := tx.Analysis()
	d := tx.Design()
	c := newCrew(tx.Scratch())
	defer c.close()
	res := &Result{
		Method:           method,
		InitialWidth:     d.TotalWidth(),
		InitialObjective: objective(a, cfg),
		Design:           d,
	}
	if math.IsNaN(res.InitialObjective) {
		// Every sensitivity would be NaN, and NaN passes the
		// minSensitivity check, so the run would size blindly.
		return nil, fmt.Errorf("core: %s optimization: the objective is NaN at the initial design", method)
	}
	res.FinalObjective = res.InitialObjective

	partial := func(cause error) (*Result, error) {
		res.FinalWidth = d.TotalWidth()
		res.Elapsed = time.Since(start)
		return res, fmt.Errorf("core: %s optimization interrupted after %d iterations: %w",
			method, res.Iterations, cause)
	}

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return partial(err)
		}
		if areaCapReached(cfg, res.InitialWidth, d.TotalWidth()) {
			break
		}
		iterStart := time.Now()
		ir, err := search(ctx, a, cfg, objective(a, cfg), c)
		if err != nil {
			if ctx.Err() != nil {
				return partial(ctx.Err())
			}
			return nil, err
		}
		var sized []netlist.GateID
		for _, p := range ir.picks {
			if p.sens <= minSensitivity {
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
		after := objective(a, cfg)
		rec := IterRecord{
			Iter:                 iter,
			Gates:                sized,
			Sensitivity:          ir.picks[0].sens,
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

// innerResult is what one iteration's sensitivity search reports.
type innerResult struct {
	picks        []pick // best gates in descending sensitivity
	considered   int
	pruned       int
	nodesVisited int
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

// full reports whether k candidates have finished, so that kth is a
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

// crew is the session's workers as one optimizer run drives them, and
// the pool that runs them: the pool hands every sweep, front build and
// level step the worker it runs on.
//
// It also holds the run's front storage, which every accelerated
// iteration of the run reuses: one front per candidate, with the live,
// pending and delays slices each front grows, and the iteration's heap
// and round batch. An iteration rebuilds every front it uses in place
// (front.build sets every field), so only slice capacity carries over
// from one iteration to the next, and a warm iteration allocates none
// of this scaffolding. The storage dies with the crew at run end, like
// the recyclers' free lists, so an idle session retains none of it.
type crew struct {
	workers []*worker
	pool    *par.Pool[*worker]

	fronts []*front
	heap   frontHeap
	batch  []*front
}

// worker is one session worker in an optimizer run: its scratch
// (element id of Tx.Scratch), and the consumed front values another
// worker kept, which wait there for the caller to drop them after a
// barrier (see worker.drop).
type worker struct {
	id      int32
	sc      *ssta.Scratch
	foreign []liveNode
}

// newCrew starts a pool with one worker per scratch in ws. The caller
// must close it.
func newCrew(ws []*ssta.Scratch) *crew {
	c := &crew{workers: make([]*worker, len(ws))}
	for i, sc := range ws {
		c.workers[i] = &worker{id: int32(i), sc: sc}
	}
	c.pool = par.NewPool(c.workers)
	return c
}

// close stops the pool and releases every worker's recycler. Recycled
// front storage lives for one run, so an idle session retains none of
// it.
func (c *crew) close() {
	c.pool.Close()
	for _, w := range c.workers {
		w.sc.Recycler().Release()
	}
}
