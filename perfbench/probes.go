package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"statsize"
	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/ssta"
)

// fftFloor is the smallest operand support (bins) the dist package ever
// routes to its FFT convolution.
const fftFloor = 768

// Probe sizes: enough samples for a stable median, small next to the
// measured run.
const (
	probeWhatIfs   = 24
	probeBatches   = 3
	probeBatchSize = 32
	probeResizes   = 6
	probeCritReads = 24
	probeIters     = 3
	probeFullPass  = 3
	probeGates     = 200
	probePairs     = 300
	probeKernelRep = 20
)

// probeLayers times the public entry points of ssta, session, core and
// dist on the live session s, which the probe leaves as it found it:
// every mutation sits between a Checkpoint and a Rollback.
func probeLayers(ctx context.Context, tr *tracer, eng *statsize.Engine, s *statsize.Session, rng *rand.Rand) error {
	root := tr.begin("probe.layers", -1, -1)
	defer tr.end(root)
	before, err := s.Objective()
	if err != nil {
		return err
	}
	if err := probeFullPasses(ctx, tr, root, eng, s); err != nil {
		return err
	}
	if err := probeSession(ctx, tr, root, s, rng); err != nil {
		return err
	}
	if err := probeCore(ctx, tr, root, eng, s); err != nil {
		return err
	}
	if err := probeAnalysis(tr, root, s, rng); err != nil {
		return err
	}
	after, err := s.Objective()
	if err != nil {
		return err
	}
	if after != before {
		return fmt.Errorf("probes moved the live objective %v -> %v", before, after)
	}
	return nil
}

// probeFullPasses times full SSTA passes over a snapshot of the live
// design at the session grid.
func probeFullPasses(ctx context.Context, tr *tracer, parent int, eng *statsize.Engine, s *statsize.Session) error {
	d, err := s.Snapshot()
	if err != nil {
		return err
	}
	dt, err := s.DT()
	if err != nil {
		return err
	}
	for i := 0; i < probeFullPass; i++ {
		id := tr.begin("ssta.full_pass", parent, -1)
		_, err := ssta.AnalyzeParallel(ctx, d, dt, eng.Parallelism())
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// probeSession times single what-ifs, what-if batches, criticality
// reads, and checkpoint → resizes → rollback.
func probeSession(ctx context.Context, tr *tracer, parent int, s *statsize.Session, rng *rand.Rand) error {
	d, err := s.Snapshot()
	if err != nil {
		return err
	}
	gs := newGateStream(rng, d.NL.NumGates())
	for i := 0; i < probeWhatIfs; i++ {
		if _, err := timedWhatIf(ctx, tr, parent, -1, s, gs.candidate(d)); err != nil {
			return err
		}
	}
	for i := 0; i < probeBatches; i++ {
		if _, err := timedBatch(ctx, tr, parent, -1, s, gs.candidates(d, probeBatchSize)); err != nil {
			return err
		}
	}
	if _, err := timedCheckpoint(tr, parent, -1, s); err != nil {
		return err
	}
	for i := 0; i < probeResizes; i++ {
		if _, err := timedResize(ctx, tr, parent, -1, s, gs.candidate(d)); err != nil {
			return err
		}
		// Each commit invalidates the required-time pass, so the first
		// read after it pays for the backward pass.
		for j := 0; j < probeCritReads/probeResizes; j++ {
			if _, err := timedCriticality(ctx, tr, parent, -1, s, gs.gate()); err != nil {
				return err
			}
		}
	}
	return timedRollback(tr, parent, -1, s)
}

// probeCore runs accelerated iterations from the live state, then
// brute force against accelerated on one matched iteration, restoring
// the state after each. The gates each picked are kept on their spans.
func probeCore(ctx context.Context, tr *tracer, parent int, eng *statsize.Engine, s *statsize.Session) error {
	if _, err := s.Checkpoint(); err != nil {
		return err
	}
	if _, err := runAccelerated(ctx, tr, parent, -1, eng, s, probeIters); err != nil {
		return err
	}
	if err := s.Rollback(); err != nil {
		return err
	}
	for _, m := range []struct{ optimizer, span string }{
		{"brute-force", "core.brute_iter"}, {"accelerated", "core.accel_iter"},
	} {
		if _, err := s.Checkpoint(); err != nil {
			return err
		}
		id := tr.begin(m.span, parent, -1)
		res, err := eng.OptimizeSession(ctx, s, m.optimizer, statsize.MaxIterations(1))
		pick := -1
		if err == nil && len(res.Records) > 0 && len(res.Records[0].Gates) > 0 {
			pick = int(res.Records[0].Gates[0])
		}
		tr.end(id, "gate", pick)
		if err != nil {
			return err
		}
		if err := s.Rollback(); err != nil {
			return err
		}
	}
	return nil
}

// runAccelerated runs capped accelerated iterations on s, recording one
// core.iter span per iteration (the span between OnIteration callbacks)
// and reporting each iteration to onIter when it is non-nil.
func runAccelerated(ctx context.Context, tr *tracer, parent int, op int64, eng *statsize.Engine, s *statsize.Session, iters int, onIter ...func(time.Duration)) (*statsize.Result, error) {
	last := time.Now()
	return eng.OptimizeSession(ctx, s, "accelerated",
		statsize.MaxIterations(iters),
		statsize.OnIteration(func(r statsize.IterRecord) {
			now := time.Now()
			tr.record("core.iter", parent, op, last, now,
				"nodes", r.NodesVisited, "considered", r.CandidatesConsidered, "pruned", r.CandidatesPruned)
			for _, f := range onIter {
				f(now.Sub(last))
			}
			last = time.Now()
		}))
}

// probeAnalysis times PerturbedDelays and the dist kernels on operands
// harvested from the live analysis. It holds the session for the whole
// probe and mutates nothing.
func probeAnalysis(tr *tracer, parent int, s *statsize.Session, rng *rand.Rand) error {
	tx, err := s.Acquire()
	if err != nil {
		return err
	}
	defer tx.Release()
	a, d := tx.Analysis(), tx.Design()
	for i := 0; i < probeGates; i++ {
		g := statsize.GateID(rng.Intn(d.NL.NumGates()))
		id := tr.begin("ssta.perturbed_delays", parent, -1)
		_, err := a.PerturbedDelays(g, d.Width(g)+d.Lib.DeltaW)
		tr.end(id)
		if err != nil {
			return err
		}
	}

	// Harvest: every (fanin arrival, edge delay) pair is one convolution
	// of the forward pass; the first two convolved terms of a multi-fanin
	// node are one max.
	g := d.E.G
	var conv, maxes [][2]*dist.Dist
	for n := 0; n < g.NumNodes(); n++ {
		var terms []*dist.Dist
		for _, eid := range g.In(graph.NodeID(n)) {
			delay := a.EdgeDelay(eid)
			if delay == nil {
				continue
			}
			from := a.Arrival(g.EdgeAt(eid).From)
			conv = append(conv, [2]*dist.Dist{from, delay})
			if len(terms) < 2 {
				terms = append(terms, dist.Convolve(from, delay))
			}
		}
		if len(terms) == 2 {
			maxes = append(maxes, [2]*dist.Dist{terms[0], terms[1]})
		}
	}
	ar := dist.NewArena()
	kernel := func(name string, pairs [][2]*dist.Dist, f func(x, y *dist.Dist)) {
		for i := 0; i < probePairs && len(pairs) > 0; i++ {
			p := pairs[rng.Intn(len(pairs))]
			id := tr.begin(name, parent, -1)
			for r := 0; r < probeKernelRep; r++ {
				ar.Reset()
				f(p[0], p[1])
			}
			tr.end(id, "reps", probeKernelRep, "a_bins", p[0].NumBins(), "b_bins", p[1].NumBins(),
				"min_bins", min(p[0].NumBins(), p[1].NumBins()))
		}
	}
	kernel("dist.convolve", conv, func(x, y *dist.Dist) { dist.ConvolveInto(ar, x, y) })
	kernel("dist.maxindep", maxes, func(x, y *dist.Dist) { dist.MaxIndepInto(ar, x, y) })
	kernel("dist.percentile", conv, func(x, _ *dist.Dist) { x.Percentile(0.99) })
	return nil
}

// Timed session calls shared by the workloads and the probes; each
// records one span named after the layer call.

func timedWhatIf(ctx context.Context, tr *tracer, parent int, op int64, s *statsize.Session, c statsize.Candidate) (statsize.WhatIfResult, error) {
	id := tr.begin("session.whatif", parent, op)
	r, err := s.WhatIf(ctx, c.Gate, c.Width)
	tr.end(id, "nodes", r.NodesVisited)
	return r, err
}

func timedBatch(ctx context.Context, tr *tracer, parent int, op int64, s *statsize.Session, cs []statsize.Candidate) ([]statsize.WhatIfResult, error) {
	id := tr.begin("session.whatif_batch", parent, op)
	rs, err := s.WhatIfBatch(ctx, cs)
	tr.end(id, "candidates", len(cs))
	return rs, err
}

func timedResize(ctx context.Context, tr *tracer, parent int, op int64, s *statsize.Session, c statsize.Candidate) (statsize.ResizeStats, error) {
	id := tr.begin("session.resize", parent, op)
	r, err := s.Resize(ctx, c.Gate, c.Width)
	tr.end(id, "recomputed", r.NodesRecomputed, "full", r.FullPassNodes)
	return r, err
}

func timedCriticality(ctx context.Context, tr *tracer, parent int, op int64, s *statsize.Session, g statsize.GateID) (float64, error) {
	id := tr.begin("session.criticality", parent, op)
	c, err := s.Criticality(ctx, g)
	tr.end(id)
	return c, err
}

func timedSlack(ctx context.Context, tr *tracer, parent int, op int64, s *statsize.Session, g statsize.GateID) error {
	id := tr.begin("session.slack", parent, op)
	_, err := s.Slack(ctx, g)
	tr.end(id)
	return err
}

func timedCheckpoint(tr *tracer, parent int, op int64, s *statsize.Session) (int, error) {
	id := tr.begin("session.checkpoint", parent, op)
	n, err := s.Checkpoint()
	tr.end(id)
	return n, err
}

func timedRollback(tr *tracer, parent int, op int64, s *statsize.Session) error {
	id := tr.begin("session.rollback", parent, op)
	err := s.Rollback()
	tr.end(id)
	return err
}

// perLayer derives the per-layer metrics from the spans of a traced run.
func perLayer(spans []span) map[string]metric {
	med := func(name string) float64 { return median(durationsMs(spans, name)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]metric{
		"circuitgen.generate_ms": {med("circuitgen.generate"), "ms"},
		"design.new_ms":          {med("design.new"), "ms"},
		"session.open_ms":        {med("session.open"), "ms"},
		"ssta.full_pass_ms":      {med("ssta.full_pass"), "ms"},

		"core.iter_ms":             {med("core.iter"), "ms"},
		"core.brute_iter_ms":       {med("core.brute_iter"), "ms"},
		"session.whatif_ms":        {med("session.whatif"), "ms"},
		"session.resize_ms":        {med("session.resize"), "ms"},
		"session.checkpoint_us":    {1000 * med("session.checkpoint"), "us"},
		"session.rollback_us":      {1000 * med("session.rollback"), "us"},
		"session.criticality_us":   {1000 * med("session.criticality"), "us"},
		"session.whatif_batch_ms":  {med("session.whatif_batch"), "ms"},
		"ssta.perturbed_delays_us": {1000 * med("ssta.perturbed_delays"), "us"},
		"session.whatif_nodes":     {median(attrValues(spans, "session.whatif", "nodes")), "count"},
	}

	nodes, iters := attrSum(spans, "core.iter", "nodes")
	considered, _ := attrSum(spans, "core.iter", "considered")
	pruned, _ := attrSum(spans, "core.iter", "pruned")
	iterNs := 1e6 * sum(durationsMs(spans, "core.iter"))
	m["core.nodes_per_iter"] = metric{ratio(nodes, float64(iters)), "count"}
	m["core.prune_ratio"] = metric{ratio(pruned, considered), "ratio"}
	m["core.ns_per_node"] = metric{ratio(iterNs, nodes), "ns"}
	m["core.accel_speedup"] = metric{ratio(sum(durationsMs(spans, "core.brute_iter")), sum(durationsMs(spans, "core.accel_iter"))), "x"}

	recomputed, _ := attrSum(spans, "session.resize", "recomputed")
	full, _ := attrSum(spans, "session.resize", "full")
	m["ssta.resize_nodes_ratio"] = metric{ratio(recomputed, full), "ratio"}

	perCall := func(name string) float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name == name {
				xs = append(xs, float64(s.dur())/s.Attrs["reps"])
			}
		}
		return median(xs)
	}
	m["dist.convolve_ns"] = metric{perCall("dist.convolve"), "ns"}
	m["dist.maxindep_ns"] = metric{perCall("dist.maxindep"), "ns"}
	m["dist.percentile_ns"] = metric{perCall("dist.percentile"), "ns"}
	m["dist.support_bins_p50"] = metric{median(attrValues(spans, "dist.convolve", "a_bins")), "bins"}
	eligible := 0
	minBins := attrValues(spans, "dist.convolve", "min_bins")
	for _, b := range minBins {
		if b >= fftFloor {
			eligible++
		}
	}
	m["dist.fft_eligible_share"] = metric{ratio(float64(eligible), float64(len(minBins))), "ratio"}

	for k, v := range wireMetrics(spans) {
		m[k] = v
	}
	// A layer the run never reached has no samples; it reads 0 rather
	// than NaN, which JSON cannot carry.
	for k, v := range m {
		if math.IsNaN(v.Value) {
			m[k] = metric{0, v.Unit}
		}
	}
	return m
}
