package statsize

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/core"
	"statsize/internal/design"
	"statsize/internal/montecarlo"
	"statsize/internal/netlist"
	"statsize/internal/par"
	"statsize/internal/session"
	"statsize/internal/ssta"
	"statsize/internal/sta"
)

// Engine is the long-lived entry point of the library: it binds a cell
// library and analysis defaults once and then serves any number of
// loading, analysis and optimization requests, concurrently.
//
// Every method is safe for concurrent use. Optimization methods operate
// on a private clone of the design they are given, so one loaded
// netlist can back many simultaneous requests; the sized design comes
// back in Result.Design. All methods that can run long take a
// context.Context and honor cancellation promptly, returning whatever
// partial result exists wrapped around context.Canceled.
//
//	eng, _ := statsize.New(
//		statsize.WithBins(600),
//		statsize.WithObjective(statsize.Percentile(0.99)),
//		statsize.WithParallelism(8),
//	)
//	d, _ := eng.Benchmark("c432")
//	res, _ := eng.Optimize(ctx, d, "accelerated", statsize.MaxIterations(100))
type Engine struct {
	lib         *cell.Library
	bins        int
	binsSet     bool // WithBins was called (0 then means "invalid", not "default")
	objective   Objective
	parallelism int

	// counters is the engine-wide atomic session rollup behind Stats:
	// every session the engine opens (Open, Optimize, OptimizeSuite)
	// is bound to it at open and reports its activity inline. Atomic,
	// so it is read lock-free.
	counters session.Counters

	// cache holds the elaborated benchmark base designs. Its Do
	// callbacks cannot fail, so their nil error is dropped.
	cache par.Locked[benchCache]
}

// benchCache maps a benchmark name to its min-sized base design.
type benchCache map[string]*design.Design

// Option configures an Engine under construction.
type Option func(*Engine)

// ConfigError reports an Engine option that was given an invalid
// value. New and Open return it (wrapped nowhere — errors.As directly)
// so callers can distinguish a misconfiguration from an environmental
// failure and report which knob to fix.
type ConfigError struct {
	Option string // the option name, e.g. "WithBins"
	Value  any    // the rejected value
	Reason string // why it was rejected
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("statsize: %s(%v): %s", e.Option, e.Value, e.Reason)
}

// WithLibrary selects the cell library for designs the engine builds.
// The default is DefaultLibrary(). The library must not be mutated
// while the engine is in use.
func WithLibrary(lib *Library) Option { return func(e *Engine) { e.lib = lib } }

// WithBins sets the default SSTA grid resolution (bins across the
// estimated circuit delay). The default is 600, the experiments'
// setting. Non-positive values are rejected by New with a ConfigError:
// a zero or negative bin budget has no meaning and historically slipped
// through construction only to panic deep inside Design.SuggestDT.
func WithBins(n int) Option {
	return func(e *Engine) {
		e.bins = n
		e.binsSet = true
	}
}

// WithObjective sets the default optimization objective. The default is
// Percentile(0.99), the paper's.
func WithObjective(o Objective) Option { return func(e *Engine) { e.objective = o } }

// WithParallelism bounds the worker count of every parallel path the
// engine drives: batch APIs such as OptimizeSuite, the level-parallel
// SSTA pass behind Open, Session.WhatIfBatch evaluation, and the
// per-candidate sweeps inside the brute-force and accelerated
// optimizers. The worker count never changes results — all parallel
// evaluation is mutation-free and merges in deterministic order — only
// how fast they arrive. The default is GOMAXPROCS; 1 forces fully
// serial evaluation.
func WithParallelism(n int) Option { return func(e *Engine) { e.parallelism = n } }

// New builds an Engine from functional options.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{}
	_ = e.cache.Do(func(c *benchCache) error { *c = benchCache{}; return nil })
	for _, opt := range opts {
		opt(e)
	}
	if e.lib == nil {
		e.lib = cell.Default180nm()
	}
	if err := e.lib.Validate(); err != nil {
		return nil, err
	}
	if e.binsSet && e.bins <= 0 {
		return nil, &ConfigError{Option: "WithBins", Value: e.bins, Reason: "bin budget must be positive"}
	}
	if e.bins == 0 {
		e.bins = 600
	}
	if e.objective == nil {
		e.objective = Percentile(0.99)
	}
	if e.parallelism < 0 {
		return nil, &ConfigError{Option: "WithParallelism", Value: e.parallelism, Reason: "worker bound must be non-negative (0 means GOMAXPROCS)"}
	}
	if e.parallelism == 0 {
		e.parallelism = runtime.GOMAXPROCS(0)
	}
	return e, nil
}

// Library returns the engine's cell library.
func (e *Engine) Library() *Library { return e.lib }

// Bins returns the engine's default SSTA grid resolution.
func (e *Engine) Bins() int { return e.bins }

// Objective returns the engine's default optimization objective.
func (e *Engine) Objective() Objective { return e.objective }

// Parallelism returns the engine's batch worker bound.
func (e *Engine) Parallelism() int { return e.parallelism }

// Benchmark returns a minimum-sized design for a named benchmark: "c17"
// is the genuine embedded ISCAS'85 netlist; c432..c7552 are structural
// replicas matching the paper's Table 1 node/edge counts exactly. The
// elaborated circuit is built once per engine and cached; callers
// receive independent clones, so designs returned here can be sized and
// analyzed freely without affecting each other.
func (e *Engine) Benchmark(name string) (*Design, error) {
	var base *design.Design
	_ = e.cache.Do(func(c *benchCache) error { base = (*c)[name]; return nil })
	if base != nil {
		return base.Clone(), nil
	}
	built, err := e.buildBenchmark(name)
	if err != nil {
		return nil, err
	}
	_ = e.cache.Do(func(c *benchCache) error {
		// Another goroutine may have won the build race; keep one copy.
		if base = (*c)[name]; base == nil {
			base, (*c)[name] = built, built
		}
		return nil
	})
	return base.Clone(), nil
}

func (e *Engine) buildBenchmark(name string) (*design.Design, error) {
	if name == "c17" {
		return design.New(netlist.C17(e.lib), e.lib)
	}
	sp, ok := circuitgen.ByName(name)
	if !ok {
		return nil, &UnknownCircuitError{Name: name}
	}
	nl, err := circuitgen.Generate(e.lib, sp)
	if err != nil {
		return nil, err
	}
	return design.New(nl, e.lib)
}

// LoadBench parses an ISCAS .bench netlist and returns a minimum-sized
// design over the engine's library.
func (e *Engine) LoadBench(r io.Reader, name string) (*Design, error) {
	nl, err := netlist.ParseBench(r, name, e.lib)
	if err != nil {
		return nil, err
	}
	return design.New(nl, e.lib)
}

// GenerateCircuit builds a design from a custom synthetic circuit spec.
func (e *Engine) GenerateCircuit(sp CircuitSpec) (*Design, error) {
	nl, err := circuitgen.Generate(e.lib, sp)
	if err != nil {
		return nil, err
	}
	return design.New(nl, e.lib)
}

// NewDesign binds an existing netlist to the engine's library at
// minimum widths.
func (e *Engine) NewDesign(nl *Netlist) (*Design, error) {
	return design.New(nl, e.lib)
}

// AnalyzeSTA runs deterministic static timing analysis.
func (e *Engine) AnalyzeSTA(d *Design) *STAResult { return sta.Analyze(d) }

// AnalyzeSSTA runs statistical static timing analysis at the engine's
// grid resolution, level-parallel across the engine's worker bound.
func (e *Engine) AnalyzeSSTA(ctx context.Context, d *Design) (*Analysis, error) {
	return ssta.AnalyzeParallel(ctx, d, d.SuggestDT(e.bins), e.parallelism)
}

// MonteCarlo samples the exact circuit-delay distribution.
func (e *Engine) MonteCarlo(ctx context.Context, d *Design, samples int, seed int64) (*MCResult, error) {
	return montecarlo.Run(ctx, d, samples, seed)
}

// MonteCarloCorrelated samples the circuit delay under spatially
// correlated variation.
func (e *Engine) MonteCarloCorrelated(ctx context.Context, d *Design, samples int, seed int64, m CorrModel) (*MCResult, error) {
	return montecarlo.RunCorrelated(ctx, d, samples, seed, m)
}

// Criticality estimates per-gate critical-path probabilities by Monte
// Carlo (indexed by gate ID).
func (e *Engine) Criticality(ctx context.Context, d *Design, samples int, seed int64) ([]float64, error) {
	return montecarlo.Criticality(ctx, d, samples, seed)
}

// RunOption adjusts the configuration of one optimization run on top of
// the engine's defaults.
type RunOption func(*Config)

// MaxIterations caps the sizing iterations of a run.
func MaxIterations(n int) RunOption { return func(c *Config) { c.MaxIterations = n } }

// MaxAreaIncrease stops a run once the total gate width exceeds the
// initial total by this fraction (0.25 = +25%).
func MaxAreaIncrease(frac float64) RunOption { return func(c *Config) { c.MaxAreaIncrease = frac } }

// MultiSize sizes the top-k gates per iteration instead of one.
func MultiSize(k int) RunOption { return func(c *Config) { c.MultiSize = k } }

// HeuristicLevels stops perturbation fronts after n levels and uses the
// bound as an approximate sensitivity (drops the exactness guarantee).
func HeuristicLevels(n int) RunOption { return func(c *Config) { c.HeuristicLevels = n } }

// ForObjective overrides the engine's objective for one run.
func ForObjective(o Objective) RunOption { return func(c *Config) { c.Objective = o } }

// OnIteration observes each completed sizing iteration of a run.
func OnIteration(fn func(IterRecord)) RunOption { return func(c *Config) { c.OnIteration = fn } }

// WithConfig replaces the run configuration wholesale; later options
// still apply on top, and unset fields still inherit engine defaults.
// It reaches the Config knobs no other RunOption exposes, such as an
// explicit grid (Bins or DT) for one run.
func WithConfig(cfg Config) RunOption { return func(c *Config) { *c = cfg } }

// buildConfig resolves one run's Config: run options over a zero
// config, then engine defaults for whatever they left unset.
func (e *Engine) buildConfig(opts []RunOption) Config {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Objective == nil {
		cfg.Objective = e.objective
	}
	if cfg.Bins <= 0 && cfg.DT <= 0 {
		cfg.Bins = e.bins
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = e.parallelism
	}
	return cfg
}

// Open starts an incremental timing session on a private clone of d:
// one full SSTA pass at the resolved grid, then every query (sink
// distribution, percentiles, per-gate arrival, statistical slack and
// criticality via the backward required-time pass) and every mutation
// (incremental Resize, uncommitted WhatIf, Checkpoint/Rollback) runs
// against that live analysis. The caller's design is never mutated.
//
// The session is safe for concurrent use — calls serialize on an
// internal lock — and must be Closed when done. Run options resolve the
// grid resolution and objective exactly as Optimize does, so a session
// opened and optimized with the same options sees the same numbers.
func (e *Engine) Open(ctx context.Context, d *Design, opts ...RunOption) (*Session, error) {
	return core.OpenSession(ctx, d.Clone(), e.buildConfig(opts), &e.counters)
}

// Optimize sizes a clone of d with the named optimizer (see Optimizers
// for the registry) under the engine's defaults adjusted by run
// options: it opens a session over the clone, runs the strategy against
// it, and closes the session. The caller's design is never mutated; the
// sized clone is Result.Design.
//
// Cancellation via ctx is honored between iterations and between
// candidate evaluations: the partial Result — committed iterations, the
// partially sized clone, the trace — is returned together with an error
// wrapping context.Canceled.
func (e *Engine) Optimize(ctx context.Context, d *Design, optimizer string, opts ...RunOption) (*Result, error) {
	o, err := lookupOptimizer(optimizer)
	if err != nil {
		return nil, err
	}
	cfg := e.buildConfig(opts)
	s, err := core.OpenSession(ctx, d.Clone(), cfg, &e.counters)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return o.Optimize(ctx, s, cfg)
}

// OptimizeSession runs the named optimizer against a caller-held
// session, so one long-lived session can interleave queries, what-ifs,
// manual resizes, checkpoints and full optimizer runs. The optimizer
// acquires the session exclusively for the duration of the run;
// concurrent session calls block until it returns. Result.Design is the
// session's live design — snapshot it (Session.Snapshot) if the session
// keeps mutating afterwards.
//
// The run uses the analysis grid and the worker count the session was
// opened with: grid options (WithConfig's Bins or DT) and WithConfig's
// Parallelism are construction-time parameters and are ignored here —
// pass them to Engine.Open instead. All other run options (iterations,
// area cap, objective, ...) apply normally.
func (e *Engine) OptimizeSession(ctx context.Context, s *Session, optimizer string, opts ...RunOption) (*Result, error) {
	o, err := lookupOptimizer(optimizer)
	if err != nil {
		return nil, err
	}
	return o.Optimize(ctx, s, e.buildConfig(opts))
}

// SuiteResult is one circuit's outcome within OptimizeSuite.
type SuiteResult struct {
	Circuit string
	Result  *Result // nil when Err is set before the run produced anything
	Err     error
}

// OptimizeSuite runs the named optimizer over a batch of benchmark
// circuits (nil means the full Table 1 suite) on a worker pool bounded
// by the engine's parallelism. Results arrive in input order; a
// circuit's failure is recorded in its SuiteResult without aborting the
// rest. The returned error is non-nil only when the context ended the
// batch early — per-circuit errors never abort the suite — and then the
// undone circuits carry the context error in their Err fields.
//
// This is the seed of the service layer the ROADMAP aims at: one engine
// instance, one loaded library, N concurrent sizing workloads.
func (e *Engine) OptimizeSuite(ctx context.Context, circuits []string, optimizer string, opts ...RunOption) ([]SuiteResult, error) {
	if _, err := lookupOptimizer(optimizer); err != nil {
		return nil, err
	}
	if circuits == nil {
		circuits = BenchmarkNames()
	}
	out := make([]SuiteResult, len(circuits))
	ran := make([]bool, len(circuits))
	// A row's own failure lands in its slot and never stops the pool, so
	// only the context can end the batch early.
	err := par.Run(ctx, e.parallelism, len(circuits), func(i int) error {
		row := SuiteResult{Circuit: circuits[i]}
		d, err := e.Benchmark(row.Circuit)
		if err == nil {
			row.Result, err = e.Optimize(ctx, d, optimizer, opts...)
		}
		row.Err = err
		out[i], ran[i] = row, true
		return nil
	})
	if err != nil {
		for i, name := range circuits {
			if !ran[i] {
				out[i] = SuiteResult{Circuit: name, Err: err}
			}
		}
		return out, fmt.Errorf("statsize: suite canceled: %w", err)
	}
	return out, nil
}

// EngineStats is a point-in-time snapshot of engine-wide accounting:
// every session the engine opened (through Open as well as the private
// sessions backing Optimize and OptimizeSuite runs) reports into it
// live. The delay-cache rollup sums DelayCacheStats over the engine's
// cached benchmark base designs — clones share their base's cache, so
// session traffic on benchmark designs is covered; designs loaded
// through LoadBench/NewDesign carry private caches outside this rollup.
// The JSON tags are a stable wire contract: statsized serves this
// struct verbatim from /stats.
type EngineStats struct {
	SessionsOpened   int64 `json:"sessions_opened"`   // sessions ever opened
	SessionsLive     int64 `json:"sessions_live"`     // opened minus closed
	WhatIfsServed    int64 `json:"whatifs_served"`    // what-if evaluations (single + batch members)
	ResizesCommitted int64 `json:"resizes_committed"` // committed incremental resizes
	Checkpoints      int64 `json:"checkpoints"`       // checkpoints taken
	Rollbacks        int64 `json:"rollbacks"`         // rollbacks applied

	DelayCacheHits    uint64 `json:"delay_cache_hits"`    // memo hits across cached benchmark designs
	DelayCacheMisses  uint64 `json:"delay_cache_misses"`  // memo misses (entries computed)
	DelayCacheFlushes uint64 `json:"delay_cache_flushes"` // wholesale shard flushes
	DelayCacheEntries int    `json:"delay_cache_entries"` // live memo entries
	BenchmarksCached  int    `json:"benchmarks_cached"`   // elaborated benchmark designs held
}

// Stats snapshots the engine-wide accounting. It never takes a session
// lock — sessions mirror their activity into an atomic rollup as it
// happens — so it is safe to poll from a health endpoint while
// long-running optimizer runs hold their sessions.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		SessionsOpened:   e.counters.Opened(),
		SessionsLive:     e.counters.Live(),
		WhatIfsServed:    e.counters.WhatIfs(),
		ResizesCommitted: e.counters.Resizes(),
		Checkpoints:      e.counters.Checkpoints(),
		Rollbacks:        e.counters.Rollbacks(),
	}
	_ = e.cache.Do(func(c *benchCache) error {
		st.BenchmarksCached = len(*c)
		for _, d := range *c {
			hits, misses, flushes, entries := d.DelayCacheStats()
			st.DelayCacheHits += hits
			st.DelayCacheMisses += misses
			st.DelayCacheFlushes += flushes
			st.DelayCacheEntries += entries
		}
		return nil
	})
	return st
}
