package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"statsize"
	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/ssta"
)

// The explore workload: one designer drives a closed loop of what-ifs,
// reads and commits on one seeded c6288 replica at a fine grid. Every
// commitsPerEpisode commits are rolled back to the episode's checkpoint,
// which keeps the state stationary.
const (
	exploreBins       = 1600
	exploreBatch      = 32
	commitsPerEpisode = 4
	exploreGainIters  = 3 // accelerated iterations behind p99_gain_pct
)

// exploreCircuit is the suite: one c6288 replica (2469 gates, 100
// levels), fixed so that seeds vary the op stream, not the circuit.
var exploreCircuit = member{"c6288", 0}

// exploreCycle is the op mix as a fixed cycle of kinds, so every run
// issues the same mix; the seed draws the gates and widths. A rollback
// and a checkpoint follow every commitsPerEpisode-th resize. Batches are
// just over half the ops, so the median op is always a batch and the
// run stays between 200 and 1000 ops (the p95 tail).
var exploreCycle = []string{
	"whatif_batch", "whatif", "whatif_batch", "criticality", "whatif_batch", "resize",
	"whatif_batch", "whatif", "whatif_batch", "slack", "whatif_batch", "whatif_batch",
}

type exploreRun struct {
	seed, circuits int64
	eng            *statsize.Engine
	base           *design.Design
	s              *statsize.Session
	dt             float64
	gates          *gateStream
	bench          string
	gain           float64

	// Episode state: the objective at the open checkpoint, the commits
	// since, and the last batch's results not yet committed.
	ckptObj   float64
	commits   int
	lastBatch []statsize.WhatIfResult
	restores  []restore
	ops       map[string]int
}

// restore is one rollback's evidence: the objective recorded at the
// checkpoint and the one read back after rolling back to it.
type restore struct{ want, got float64 }

func newExplore(seed, circuits int64) workload {
	return &exploreRun{seed: seed, circuits: circuits, ops: map[string]int{}}
}

func (e *exploreRun) setup(ctx context.Context, tr *tracer) error {
	eng, err := statsize.New(statsize.WithBins(exploreBins))
	if err != nil {
		return err
	}
	e.eng = eng
	nl, d, err := replica(tr, -1, eng.Library(), exploreCircuit.circuit, e.circuits+exploreCircuit.offset)
	if err != nil {
		return err
	}
	e.base = d
	e.gates = newGateStream(rand.New(rand.NewSource(e.seed)), d.NL.NumGates())
	if e.bench, err = benchText(nl); err != nil {
		return err
	}
	if e.s, err = openSession(ctx, tr, -1, eng, d); err != nil {
		return err
	}
	if e.dt, err = e.s.DT(); err != nil {
		return err
	}
	if _, err := e.s.Checkpoint(); err != nil {
		return err
	}
	e.ckptObj, err = e.s.Objective()
	return err
}

func (e *exploreRun) run(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer) error {
	var pending []string // scheduled ops that follow an episode's last commit
	drawn := 0
	prevEnd := time.Now()
	for op := int64(0); time.Now().Before(deadline); op++ {
		var kind string
		if len(pending) > 0 {
			kind, pending = pending[0], pending[1:]
		} else {
			kind = exploreCycle[drawn%len(exploreCycle)]
			drawn++
		}
		start := time.Now()
		root := tr.begin("explore.op", -1, op)
		err := e.do(ctx, tr, root, op, kind)
		tr.end(root)
		end := time.Now()
		rec.op(end.Sub(start), 1, start.Sub(prevEnd), err)
		prevEnd = end
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		e.ops[kind]++
		if kind == "resize" && e.commits == commitsPerEpisode {
			pending = []string{"rollback", "checkpoint"}
		}
	}
	rec.mark()
	return nil
}

func (e *exploreRun) do(ctx context.Context, tr *tracer, root int, op int64, kind string) error {
	switch kind {
	case "whatif_batch":
		rs, err := timedBatch(ctx, tr, root, op, e.s, e.gates.candidates(e.base, exploreBatch))
		e.lastBatch = rs
		return err
	case "whatif":
		_, err := timedWhatIf(ctx, tr, root, op, e.s, e.gates.candidate(e.base))
		return err
	case "criticality":
		_, err := timedCriticality(ctx, tr, root, op, e.s, e.gates.gate())
		return err
	case "slack":
		return timedSlack(ctx, tr, root, op, e.s, e.gates.gate())
	case "resize":
		if _, err := timedResize(ctx, tr, root, op, e.s, e.nextCommit()); err != nil {
			return err
		}
		e.commits++
		return nil
	case "rollback":
		if err := timedRollback(tr, root, op, e.s); err != nil {
			return err
		}
		got, err := e.s.Objective()
		if err != nil {
			return err
		}
		e.restores = append(e.restores, restore{want: e.ckptObj, got: got})
		e.commits = 0
		return nil
	case "checkpoint":
		if _, err := timedCheckpoint(tr, root, op, e.s); err != nil {
			return err
		}
		obj, err := e.s.Objective()
		e.ckptObj = obj
		return err
	}
	return fmt.Errorf("unknown op kind %q", kind)
}

// nextCommit is the designer's pick: the most improving candidate of the
// last batch not committed yet, or a random move when none improves.
func (e *exploreRun) nextCommit() statsize.Candidate {
	best := -1
	for i, r := range e.lastBatch {
		if r.Delta > 0 && (best < 0 || r.Delta > e.lastBatch[best].Delta) {
			best = i
		}
	}
	if best < 0 {
		return e.gates.candidate(e.base)
	}
	c := statsize.Candidate{Gate: e.lastBatch[best].Gate, Width: e.lastBatch[best].Width}
	e.lastBatch = append(e.lastBatch[:best:best], e.lastBatch[best+1:]...)
	return c
}

func (e *exploreRun) check(ctx context.Context) error {
	if err := checkRestores(e.restores); err != nil {
		return err
	}
	snap, err := e.s.Snapshot()
	if err != nil {
		return err
	}
	fresh, err := ssta.AnalyzeParallel(ctx, snap, e.dt, e.eng.Parallelism())
	if err != nil {
		return err
	}
	live, err := e.s.SinkDist()
	if err != nil {
		return err
	}
	if err := sameDist(live, fresh.SinkDist()); err != nil {
		return err
	}
	s, err := e.eng.Open(ctx, e.base)
	if err != nil {
		return err
	}
	defer s.Close()
	e.gain, err = sizingGain(ctx, e.eng, s, exploreGainIters)
	return err
}

// checkRestores requires every rollback to restore the checkpointed
// objective bit for bit.
func checkRestores(rs []restore) error {
	for i, r := range rs {
		if math.Float64bits(r.want) != math.Float64bits(r.got) {
			return fmt.Errorf("rollback %d restored objective %v, checkpoint had %v", i, r.got, r.want)
		}
	}
	return nil
}

// sameDist requires two distributions to be identical bin for bin.
func sameDist(got, want *dist.Dist) error {
	if math.Float64bits(got.DT()) != math.Float64bits(want.DT()) || got.I0() != want.I0() || got.NumBins() != want.NumBins() {
		return fmt.Errorf("sink grid differs: live dt %v i0 %d bins %d, fresh dt %v i0 %d bins %d",
			got.DT(), got.I0(), got.NumBins(), want.DT(), want.I0(), want.NumBins())
	}
	for k := 0; k < got.NumBins(); k++ {
		if math.Float64bits(got.MassAt(k)) != math.Float64bits(want.MassAt(k)) {
			return fmt.Errorf("sink bin %d: live %v, fresh full pass %v", k, got.MassAt(k), want.MassAt(k))
		}
	}
	return nil
}

func (e *exploreRun) probe(ctx context.Context, tr *tracer) error {
	rng := rand.New(rand.NewSource(e.seed))
	if err := probeLayers(ctx, tr, e.eng, e.s, rng); err != nil {
		return err
	}
	return probeWire(ctx, tr, exploreCircuit.circuit, e.bench, exploreBins, rng)
}

// gainPct is the p99 reduction exploreGainIters accelerated iterations
// reach on the circuit, fixed by the circuit.
func (e *exploreRun) gainPct() float64 { return e.gain }

func (e *exploreRun) cacheHitRatio() float64 { return hitRatio(e.base) }

func (e *exploreRun) facts() map[string]any {
	return map[string]any{
		"suite":               suiteNames([]member{exploreCircuit}, e.circuits),
		"bins":                exploreBins,
		"objective":           "p99",
		"loop":                "closed, 1 client",
		"batch":               exploreBatch,
		"op_cycle":            exploreCycle,
		"gain_iters":          exploreGainIters,
		"commits_per_episode": commitsPerEpisode,
		"ops_by_kind":         e.ops,
		"episodes":            len(e.restores),
	}
}

func (e *exploreRun) close() {
	if e.s != nil {
		e.s.Close()
	}
}
