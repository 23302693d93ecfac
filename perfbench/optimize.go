package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"statsize"
	"statsize/internal/design"
	"statsize/internal/ssta"
)

// The optimize workload: the paper's Table 2 quantity. Each pass sizes
// every suite member from minimum widths with the accelerated optimizer
// under an iteration cap, closed loop; one op is one sizing iteration.
// Every cycle starts from a freshly generated design, so the delay memo
// is cold as in a user's first run. Only whole passes count, so every
// run measures the same multiset of iterations whatever its pass count.
const (
	optimizeBins  = 600
	optimizeCap   = 16
	optimizeCheck = 2 // leading iterations checked against an all-candidate batch
)

// optimizeSuite lists the c1908 replicas of a pass as offsets to the
// spec seed. Per-replica cost at this cap varies 5x (0.5-2.3 s), so the
// suite is fixed: a seed-dependent set would make seed-to-seed spread
// exceed any useful bound. These three take 1.0-1.4 s each, so a 30 s
// run holds 7-11 whole passes of 48 iterations and the tail stays at
// p95, and each reaches the low-pruning regime in its last iterations.
var optimizeSuite = []member{{"c1908", 3}, {"c1908", 4}, {"c1908", 7}}

// member is one suite circuit: a Table 1 spec and the offset added to
// its seed (on top of --circuit-offset).
type member struct {
	circuit string
	offset  int64
}

type optimizeRun struct {
	seed, circuits int64
	eng            *statsize.Engine
	order          []member // the suite in this run's seeded order

	// first holds the set-up state: the first pass's sessions, opened.
	first  []*statsize.Session
	bases  []*design.Design
	cycles []cycle
	live   *statsize.Session // the latest whole pass's last session, kept for probes
}

// cycle is one capped optimizer run kept for the output checks.
type cycle struct {
	m    member
	pass int
	dt   float64
	res  *statsize.Result
}

func newOptimize(seed, circuits int64) workload {
	o := &optimizeRun{seed: seed, circuits: circuits}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(optimizeSuite)) {
		o.order = append(o.order, optimizeSuite[i])
	}
	return o
}

func (o *optimizeRun) setup(ctx context.Context, tr *tracer) error {
	eng, err := statsize.New(statsize.WithBins(optimizeBins))
	if err != nil {
		return err
	}
	o.eng = eng
	for _, m := range o.order {
		s, _, err := o.build(ctx, tr, -1, m)
		if err != nil {
			return err
		}
		o.first = append(o.first, s)
	}
	return nil
}

// build generates, binds and opens one suite member.
func (o *optimizeRun) build(ctx context.Context, tr *tracer, parent int, m member) (*statsize.Session, *design.Design, error) {
	_, d, err := replica(tr, parent, o.eng.Library(), m.circuit, o.circuits+m.offset)
	if err != nil {
		return nil, nil, err
	}
	o.bases = append(o.bases, d)
	s, err := openSession(ctx, tr, parent, o.eng, d)
	return s, d, err
}

func (o *optimizeRun) run(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer) error {
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	var op int64
	for pass := 0; ; pass++ {
		var done []cycle
		var sessions []*statsize.Session
		for i, m := range o.order {
			root := tr.begin("optimize.cycle", -1, -1)
			s := o.takeFirst(i)
			if s == nil {
				var err error
				if s, _, err = o.build(ctx, tr, root, m); err != nil {
					tr.end(root)
					closeAll(sessions)
					if ctx.Err() != nil {
						return nil
					}
					return err
				}
			}
			sessions = append(sessions, s)
			dt, err := s.DT()
			if err != nil {
				tr.end(root)
				closeAll(sessions)
				return err
			}
			res, err := runAccelerated(ctx, tr, root, op, o.eng, s, optimizeCap, func(d time.Duration) {
				rec.op(d, 1, 0, nil)
				op++
			})
			tr.end(root)
			if ctx.Err() != nil {
				// The deadline cut this pass short: drop it whole.
				closeAll(sessions)
				return nil
			}
			if err != nil {
				closeAll(sessions)
				return fmt.Errorf("%s+%d pass %d: %w", m.circuit, m.offset, pass, err)
			}
			done = append(done, cycle{m: m, pass: pass, dt: dt, res: res})
		}
		rec.mark()
		o.cycles = append(o.cycles, done...)
		if o.live != nil {
			o.live.Close()
		}
		o.live = sessions[len(sessions)-1]
		closeAll(sessions[:len(sessions)-1])
	}
}

// takeFirst hands out the set-up session of suite position i once.
func (o *optimizeRun) takeFirst(i int) *statsize.Session {
	if i >= len(o.first) || o.first[i] == nil {
		return nil
	}
	s := o.first[i]
	o.first[i] = nil
	return s
}

func closeAll(ss []*statsize.Session) {
	for _, s := range ss {
		s.Close()
	}
}

func (o *optimizeRun) check(ctx context.Context) error {
	if len(o.cycles) == 0 {
		return fmt.Errorf("no whole pass completed")
	}
	fresh := make([]float64, len(o.cycles))
	for i, c := range o.cycles {
		a, err := ssta.AnalyzeParallel(ctx, c.res.Design, c.dt, o.eng.Parallelism())
		if err != nil {
			return err
		}
		fresh[i] = a.Percentile(0.99)
	}
	if err := checkFinalObjectives(o.cycles, fresh); err != nil {
		return err
	}
	for _, m := range o.order {
		_, d, err := replica(nil, -1, o.eng.Library(), m.circuit, o.circuits+m.offset)
		if err != nil {
			return err
		}
		if err := o.checkPicks(ctx, m, d); err != nil {
			return err
		}
	}
	return nil
}

// checkFinalObjectives requires each cycle's reported final objective to
// equal a fresh full analysis of its sized design bit for bit.
func checkFinalObjectives(cycles []cycle, fresh []float64) error {
	for i, c := range cycles {
		if math.Float64bits(c.res.FinalObjective) != math.Float64bits(fresh[i]) {
			return fmt.Errorf("%s+%d pass %d: optimizer final p99 %v, fresh analysis %v",
				c.m.circuit, c.m.offset, c.pass, c.res.FinalObjective, fresh[i])
		}
	}
	return nil
}

// checkPicks replays the leading iterations on a fresh session: before
// each one, an all-candidate what-if batch at +Δw gives the expected
// pick, which the accelerated optimizer must then make.
func (o *optimizeRun) checkPicks(ctx context.Context, m member, base *design.Design) error {
	s, err := o.eng.Open(ctx, base)
	if err != nil {
		return err
	}
	defer s.Close()
	for it := 0; it < optimizeCheck; it++ {
		d, err := s.Snapshot()
		if err != nil {
			return err
		}
		var cands []statsize.Candidate
		for g := 0; g < d.NL.NumGates(); g++ {
			gid := statsize.GateID(g)
			if w := d.Width(gid) + d.Lib.DeltaW; w <= d.Lib.WMax {
				cands = append(cands, statsize.Candidate{Gate: gid, Width: w})
			}
		}
		batch, err := s.WhatIfBatch(ctx, cands)
		if err != nil {
			return err
		}
		res, err := o.eng.OptimizeSession(ctx, s, "accelerated", statsize.MaxIterations(1))
		if err != nil {
			return err
		}
		if err := checkPick(batch, res.Records); err != nil {
			return fmt.Errorf("%s+%d iteration %d: %w", m.circuit, m.offset, it, err)
		}
	}
	return nil
}

// checkPick requires the single gate an iteration sized to be the
// argmax of the batch's improvement, ties going to the lowest gate id.
func checkPick(batch []statsize.WhatIfResult, recs []statsize.IterRecord) error {
	if len(batch) == 0 {
		return fmt.Errorf("empty candidate batch")
	}
	best := batch[0]
	for _, r := range batch[1:] {
		if r.Delta > best.Delta || (r.Delta == best.Delta && r.Gate < best.Gate) {
			best = r
		}
	}
	if len(recs) != 1 || len(recs[0].Gates) != 1 {
		return fmt.Errorf("optimizer made %d iterations, want one single-gate iteration", len(recs))
	}
	if got := recs[0].Gates[0]; got != best.Gate {
		return fmt.Errorf("accelerated sized gate %d, all-candidate argmax is gate %d", got, best.Gate)
	}
	return nil
}

func (o *optimizeRun) probe(ctx context.Context, tr *tracer) error {
	if o.live == nil {
		return fmt.Errorf("no whole pass left a live session")
	}
	rng := rand.New(rand.NewSource(o.seed))
	if err := probeLayers(ctx, tr, o.eng, o.live, rng); err != nil {
		return err
	}
	m := o.order[len(o.order)-1]
	nl, _, err := replica(nil, -1, o.eng.Library(), m.circuit, o.circuits+m.offset)
	if err != nil {
		return err
	}
	bench, err := benchText(nl)
	if err != nil {
		return err
	}
	return probeWire(ctx, tr, m.circuit, bench, optimizeBins, rng)
}

// gainPct averages the p99 reduction of the first pass's cycles; every
// pass sizes the same suite, so it is fixed by the circuits.
func (o *optimizeRun) gainPct() float64 {
	var gains []float64
	for _, c := range o.cycles {
		if c.pass == 0 {
			gains = append(gains, c.res.Improvement())
		}
	}
	return mean(gains)
}

func (o *optimizeRun) cacheHitRatio() float64 { return hitRatio(o.bases...) }

func (o *optimizeRun) facts() map[string]any {
	return map[string]any{
		"suite":     suiteNames(o.order, o.circuits),
		"bins":      optimizeBins,
		"objective": "p99",
		"optimizer": "accelerated",
		"iter_cap":  optimizeCap,
		"loop":      "closed, 1 client; op = 1 sizing iteration; whole passes only",
		"passes":    len(o.cycles) / len(o.order),
	}
}

func (o *optimizeRun) close() {
	for i, s := range o.first {
		if s != nil {
			s.Close()
			o.first[i] = nil
		}
	}
	if o.live != nil {
		o.live.Close()
		o.live = nil
	}
}
