package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"statsize"
	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/design"
	"statsize/internal/netlist"
	"statsize/internal/ssta"
)

// replica generates the seeded replica of a Table 1 circuit — the seed
// is added to the spec's own seed, as the experiment harness does — and
// binds it to lib at minimum widths.
func replica(tr *tracer, parent int, lib *cell.Library, name string, seed int64) (*netlist.Netlist, *design.Design, error) {
	sp, ok := circuitgen.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown circuit %q", name)
	}
	sp.Seed += seed
	id := tr.begin("circuitgen.generate", parent, -1)
	nl, err := circuitgen.Generate(lib, sp)
	tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("generate %s seed %d: %w", name, sp.Seed, err)
	}
	id = tr.begin("design.new", parent, -1)
	d, err := design.New(nl, lib)
	tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("bind %s: %w", name, err)
	}
	return nl, d, nil
}

// openSession opens an incremental session on a private clone of d; the
// clone shares d's delay memo.
func openSession(ctx context.Context, tr *tracer, parent int, eng *statsize.Engine, d *design.Design) (*statsize.Session, error) {
	id := tr.begin("session.open", parent, -1)
	s, err := eng.Open(ctx, d)
	tr.end(id)
	return s, err
}

// benchText renders a netlist as ISCAS .bench source.
func benchText(nl *netlist.Netlist) (string, error) {
	var b strings.Builder
	if err := nl.WriteBench(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// gateStream deals gates from a seeded permutation of a circuit's
// gates, cycling through it, so a run's candidates cover the circuit
// evenly: seeds change the order of the gates, not how much work their
// cones add up to, which would otherwise swing from seed to seed.
type gateStream struct {
	rng  *rand.Rand
	perm []int
	next int
}

func newGateStream(rng *rand.Rand, gates int) *gateStream {
	return &gateStream{rng: rng, perm: rng.Perm(gates)}
}

func (gs *gateStream) gate() statsize.GateID {
	g := gs.perm[gs.next%len(gs.perm)]
	gs.next++
	return statsize.GateID(g)
}

// candidate is an upsizing move: the next gate, widened by one to four
// library steps from its width in d.
func (gs *gateStream) candidate(d *design.Design) statsize.Candidate {
	g := gs.gate()
	return statsize.Candidate{Gate: g, Width: d.Width(g) + d.Lib.DeltaW*float64(1+gs.rng.Intn(4))}
}

func (gs *gateStream) candidates(d *design.Design, n int) []statsize.Candidate {
	out := make([]statsize.Candidate, n)
	for i := range out {
		out[i] = gs.candidate(d)
	}
	return out
}

// hitRatio sums the delay memo counters of the designs.
func hitRatio(ds ...*design.Design) float64 {
	var hits, misses uint64
	for _, d := range ds {
		if d == nil {
			continue
		}
		h, m, _, _ := d.DelayCacheStats()
		hits += h
		misses += m
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// suiteNames renders suite members as circuit+seed offset.
func suiteNames(ms []member, circuits int64) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("%s+%d", m.circuit, circuits+m.offset)
	}
	return out
}

// sizingGain runs iters accelerated iterations on s between a checkpoint
// and a rollback and returns the p99 reduction they reached. The final
// objective must equal a fresh full analysis of the sized design bit for
// bit.
func sizingGain(ctx context.Context, eng *statsize.Engine, s *statsize.Session, iters int) (float64, error) {
	if _, err := s.Checkpoint(); err != nil {
		return 0, err
	}
	res, err := eng.OptimizeSession(ctx, s, "accelerated", statsize.MaxIterations(iters))
	if err == nil {
		err = checkSized(ctx, eng, s, res)
	}
	if rbErr := s.Rollback(); err == nil {
		err = rbErr
	}
	if err != nil {
		return 0, err
	}
	return res.Improvement(), nil
}

// checkSized compares a run's final objective with a fresh full pass
// over the session's current design at the session grid.
func checkSized(ctx context.Context, eng *statsize.Engine, s *statsize.Session, res *statsize.Result) error {
	d, err := s.Snapshot()
	if err != nil {
		return err
	}
	dt, err := s.DT()
	if err != nil {
		return err
	}
	a, err := ssta.AnalyzeParallel(ctx, d, dt, eng.Parallelism())
	if err != nil {
		return err
	}
	if fresh := a.Percentile(0.99); math.Float64bits(fresh) != math.Float64bits(res.FinalObjective) {
		return fmt.Errorf("optimizer final p99 %v, fresh analysis %v", res.FinalObjective, fresh)
	}
	return nil
}
