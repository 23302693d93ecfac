// Package core implements the paper's contribution: sensitivity-based
// statistical gate sizing by coordinate descent, in three variants that
// share one framework —
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
	"fmt"
	"time"

	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/netlist"
	"statsize/internal/session"
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
// per iteration, pruning and dead-front elision enabled.
type Config struct {
	// Objective to minimize; default Percentile(0.99).
	Objective Objective
	// Bins sets the SSTA grid resolution when DT is zero; default 600.
	Bins int
	// DT overrides the grid bin width directly (ns).
	DT float64
	// MaxIterations bounds the sizing iterations; default 1000 (the
	// paper sized for "over 1000 iterations").
	MaxIterations int
	// MaxAreaIncrease stops when TotalWidth exceeds the initial total by
	// this fraction (e.g. 0.25 = +25%); non-positive means unlimited.
	MaxAreaIncrease float64
	// Tolerance is the minimum sensitivity worth sizing; default 1e-9.
	Tolerance float64
	// MultiSize sizes the top-k gates per iteration (the paper notes the
	// algorithm "can be easily modified to size multiple gates");
	// default 1.
	MultiSize int
	// Parallelism bounds the worker pools of the parallel evaluation
	// paths: the session-opening SSTA pass, what-if batches, the
	// per-candidate sweeps inside the brute-force and accelerated inner
	// loops, and the accelerated heap loop's rounds, which step up to
	// eight perturbation fronts at once. Like Bins and DT it is fixed
	// when the session opens (OpenSession): a run on an already-open
	// session sweeps with that session's workers. Candidate evaluation
	// is mutation-free, results merge in candidate (or heap pop) order,
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
	// DisablePruning propagates every front to the sink (ablation).
	DisablePruning bool
	// DisableDeadFrontElision keeps propagating fronts whose perturbed
	// arrivals have collapsed onto the base analysis (ablation).
	DisableDeadFrontElision bool
	// DisableWarmStart skips evaluating the previous iteration's winner
	// first (ablation). The warm start only reorders the inner loop and
	// never changes results; measurements show the best-first Smx order
	// already establishes Max_S almost as quickly, so the effect on
	// visited nodes is within noise (~0.1% on c880).
	DisableWarmStart bool
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
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-9
	}
	if c.MultiSize <= 0 {
		c.MultiSize = 1
	}
	return c
}

// IterRecord describes one completed sizing iteration.
type IterRecord struct {
	Iter        int
	Gates       []netlist.GateID // gates sized this iteration
	Sensitivity float64          // best sensitivity found
	Objective   float64          // objective value after sizing
	TotalWidth  float64          // total gate size after sizing
	// Candidate statistics for Table 2.
	CandidatesConsidered int
	CandidatesPruned     int // fronts retired before reaching the sink
	NodesVisited         int // perturbed-arrival computations
	Elapsed              time.Duration
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

// gridFor resolves the analysis grid from the config.
func gridFor(d *design.Design, cfg Config) float64 {
	if cfg.DT > 0 {
		return cfg.DT
	}
	return d.SuggestDT(cfg.Bins)
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
	return session.Open(ctx, d, gridFor(d, cfg), cfg.Objective, cfg.Parallelism, rollup)
}

// areaCapReached reports whether the configured relative area budget is
// exhausted.
func areaCapReached(cfg Config, initial, current float64) bool {
	return cfg.MaxAreaIncrease > 0 && current >= initial*(1+cfg.MaxAreaIncrease)
}
