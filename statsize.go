// Package statsize is a statistical-timing-driven gate sizing library —
// a from-scratch reproduction of Agarwal, Chopra & Blaauw, "Statistical
// Timing Based Optimization using Gate Sizing" (DATE 2005).
//
// The library bundles everything the paper's flow needs: a gate-level
// netlist model with an ISCAS .bench parser, structural replicas of the
// ISCAS'85 benchmark suite, a logical-effort delay model with intra-die
// variation (truncated Gaussians, σ = 10% of nominal), block-based SSTA
// over discretized arrival-time distributions, Monte Carlo validation,
// and three gate sizers: a deterministic critical-path baseline, an
// exact brute-force statistical optimizer, and the paper's accelerated
// optimizer whose perturbation-bound pruning delivers identical results
// at a fraction of the cost.
//
// The entry point is the Engine: long-lived and concurrency-safe, it
// binds a cell library and analysis defaults once and then serves any
// number of requests. The core abstraction under it is the Session —
// an incremental timing view over one design: Engine.Open runs SSTA
// once, and from then on queries (sink distribution, percentiles,
// per-gate arrival, statistical slack and criticality via the backward
// required-time pass), uncommitted what-ifs, incremental resizes and
// Checkpoint/Rollback transactions all run against the live analysis.
// Optimizers are chosen by name from a fixed set (see Optimizers) and
// drive sessions, all long-running methods take a context.Context, and
// optimization always runs on a private clone of the caller's design.
//
// Quick start:
//
//	eng, _ := statsize.New()
//	d, _ := eng.Benchmark("c432")
//	s, _ := eng.Open(ctx, d)
//	defer s.Close()
//	crit, _ := s.Criticality(ctx, gate)           // P(slack <= 0), no Monte Carlo
//	wi, _ := s.WhatIf(ctx, gate, width)           // exact sensitivity, uncommitted
//	ws, _ := s.WhatIfBatch(ctx, candidates)       // many candidates, evaluated in parallel
//	rs, _ := s.Resize(ctx, gate, width)           // incremental commit
//	res, _ := eng.OptimizeSession(ctx, s, "accelerated", statsize.MaxIterations(100))
//	fmt.Printf("p99 %.3f -> %.3f ns (+%.1f%% area)\n",
//		res.InitialObjective, res.FinalObjective, res.AreaIncrease())
//
// See README.md for the tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the reproduction of every table and figure.
package statsize

import (
	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/core"
	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/gauss"
	"statsize/internal/montecarlo"
	"statsize/internal/netlist"
	"statsize/internal/session"
	"statsize/internal/ssta"
	"statsize/internal/sta"
)

// Re-exported core types. A Design is a netlist bound to a cell library
// with mutable gate widths; Config and Result parameterize and summarize
// optimization runs.
type (
	// Design is a sized circuit ready for analysis and optimization.
	Design = design.Design
	// Library holds cell timing parameters and the sizing policy.
	Library = cell.Library
	// Netlist is a combinational gate-level circuit.
	Netlist = netlist.Netlist
	// Config controls an optimization run; its zero value follows the
	// paper's protocol (99-percentile objective, 600 bins, one Δw step
	// on one gate per iteration).
	Config = core.Config
	// Result summarizes an optimization run; Result.Design is the sized
	// design (a private clone when the run went through an Engine).
	Result = core.Result
	// IterRecord is one sizing iteration of a Result.
	IterRecord = core.IterRecord
	// Objective is the scalar the optimizers minimize.
	Objective = core.Objective
	// Percentile is the p-quantile objective (the paper uses 0.99).
	Percentile = core.Percentile
	// Mean is the expected-delay objective.
	Mean = core.Mean
	// Dist is a discretized probability distribution on a uniform grid.
	Dist = dist.Dist
	// Analysis is a completed SSTA pass.
	Analysis = ssta.Analysis
	// STAResult is a completed deterministic timing analysis.
	STAResult = sta.Result
	// PathHistogramResult counts source-to-sink paths by nominal delay.
	PathHistogramResult = sta.Histogram
	// MCResult holds Monte Carlo circuit-delay samples.
	MCResult = montecarlo.Result
	// CircuitSpec describes a synthetic benchmark circuit to generate.
	CircuitSpec = circuitgen.Spec
	// GateID identifies a gate instance within a netlist.
	GateID = netlist.GateID
	// NetID identifies a net within a netlist.
	NetID = netlist.NetID
	// Session is a stateful incremental timing view over one design: a
	// live SSTA analysis that queries (arrival, slack, criticality),
	// uncommitted what-ifs, incremental resizes and checkpoints all run
	// against. Open one with Engine.Open.
	Session = session.Session
	// SessionTx is the transaction view Session.Do hands its callback —
	// what optimizers drive while they hold the session.
	SessionTx = session.Tx
	// SessionStats is the cumulative accounting of a Session (resizes,
	// nodes recomputed incrementally vs. a full pass, what-ifs, ...).
	SessionStats = session.Stats
	// ResizeStats describes one committed incremental resize.
	ResizeStats = session.ResizeStats
	// WhatIfResult describes one uncommitted candidate evaluation.
	WhatIfResult = session.WhatIfResult
	// Candidate names one hypothetical resize for Session.WhatIfBatch.
	Candidate = session.Candidate
)

// Session error sentinels, re-exported for errors.Is checks.
var (
	// ErrSessionClosed is returned by every operation on a closed Session.
	ErrSessionClosed = session.ErrClosed
	// ErrNoCheckpoint is returned by Session.Rollback when no checkpoint
	// is pending.
	ErrNoCheckpoint = session.ErrNoCheckpoint
)

// DefaultLibrary returns the synthetic 180nm-style library used by all
// experiments (EQ 1 constants, σ=10% with 3σ truncation, w ∈ [1,32],
// Δw = 0.5).
func DefaultLibrary() *Library { return cell.Default180nm() }

// BenchmarkNames lists the replica suite in Table 1 order (excluding the
// embedded "c17").
func BenchmarkNames() []string { return circuitgen.Names() }

// UnknownCircuitError reports a benchmark name outside the suite.
type UnknownCircuitError struct{ Name string }

func (e *UnknownCircuitError) Error() string {
	return "statsize: unknown benchmark circuit " + e.Name
}

// PathHistogram computes the exact path-count-versus-delay histogram
// (Figure 1's x-axis) with the given bin width in nanoseconds.
func PathHistogram(d *Design, binWidth float64) *PathHistogramResult {
	return sta.PathHistogram(d, binWidth)
}

// GaussAnalysis is a moment-propagation SSTA pass (the related-work
// baseline of Jacobs/Berkelaar and Raj et al.: Gaussian arrivals with
// Clark's max approximation).
type GaussAnalysis = gauss.Analysis

// AnalyzeGaussian runs the analytic Gaussian SSTA baseline — fast, but
// it discards the CDF shape information the paper's discretized engine
// retains.
func AnalyzeGaussian(d *Design) *GaussAnalysis { return gauss.Analyze(d) }

// TimingPath is one source-to-sink path with its nominal delay.
type TimingPath = sta.Path

// TopPaths enumerates the k nominally longest paths in descending order.
func TopPaths(d *Design, k int) []TimingPath {
	return sta.Analyze(d).TopPaths(k)
}

// CorrModel describes spatially correlated intra-die variation for
// Engine.MonteCarloCorrelated.
type CorrModel = montecarlo.CorrModel
