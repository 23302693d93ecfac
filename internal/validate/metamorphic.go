package validate

import (
	"context"
	"fmt"
	"math/rand"

	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/core"
	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/netlist"
	"statsize/internal/session"
	"statsize/internal/ssta"
)

// metaBins is the SSTA grid budget of the metamorphic suite — smaller
// than the oracle's because these properties demand bit-identity, which
// holds at any resolution, and a coarser grid keeps the suite fast.
const metaBins = 200

// Property is one metamorphic invariant of the timing stack: a relation
// between two computations over the same generated circuit that must
// hold exactly (or, for the monotonicity property, up to a stated
// discretization bound) regardless of the circuit drawn. Run returns
// nil when the property holds.
type Property struct {
	Name string
	Run  func(ctx context.Context, lib *cell.Library, sp circuitgen.Spec) error
}

// Properties returns the metamorphic suite. Every property builds its
// circuit from the spec alone, so a failure is reproducible from the
// spec literal and shrinkable by re-running on smaller specs.
func Properties() []Property {
	return []Property{
		{"serial-parallel", propSerialParallel},
		{"resize-fresh", propResizeFresh},
		{"rollback-restores", propRollbackRestores},
		{"whatif-commit", propWhatIfCommit},
		{"widen-never-slower", propWidenNeverSlower},
		{"delay-cache-identity", propDelayCacheIdentity},
	}
}

// buildDesign generates the spec's netlist and binds it at minimum
// widths.
func buildDesign(lib *cell.Library, sp circuitgen.Spec) (*design.Design, error) {
	nl, err := circuitgen.Generate(lib, sp)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	d, err := design.New(nl, lib)
	if err != nil {
		return nil, fmt.Errorf("design: %w", err)
	}
	return d, nil
}

// sampleGates draws up to n distinct gate IDs, deterministically in the
// spec seed.
func sampleGates(r *rand.Rand, numGates, n int) []netlist.GateID {
	if n > numGates {
		n = numGates
	}
	out := make([]netlist.GateID, 0, n)
	for _, gi := range r.Perm(numGates)[:n] {
		out = append(out, netlist.GateID(gi))
	}
	return out
}

// latticeWidth draws a width on the library's Δw sizing lattice.
func latticeWidth(r *rand.Rand, lib *cell.Library) float64 {
	steps := int((lib.WMax - lib.WMin) / lib.DeltaW)
	if steps > 16 {
		steps = 16 // stay in the low range, where delay sensitivity is largest
	}
	return lib.WMin + float64(1+r.Intn(steps))*lib.DeltaW
}

// equalDists compares two distributions for bit equality with a
// diagnostic error.
func equalDists(what string, got, want *dist.Dist) error {
	if !dist.ApproxEqual(got, want, 0) {
		return fmt.Errorf("%s: distributions differ (got mean %v, want mean %v)", what, got.Mean(), want.Mean())
	}
	return nil
}

// propSerialParallel: the level-parallel forward pass must be
// bit-identical to the serial reference at every node, for any worker
// count.
func propSerialParallel(ctx context.Context, lib *cell.Library, sp circuitgen.Spec) error {
	d, err := buildDesign(lib, sp)
	if err != nil {
		return err
	}
	dt := d.SuggestDT(metaBins)
	serial, err := ssta.AnalyzeParallel(ctx, d, dt, 1)
	if err != nil {
		return fmt.Errorf("serial analyze: %w", err)
	}
	parallel, err := ssta.AnalyzeParallel(ctx, d, dt, 4)
	if err != nil {
		return fmt.Errorf("parallel analyze: %w", err)
	}
	for n := 0; n < d.E.G.NumNodes(); n++ {
		ga, gb := serial.Arrival(graph.NodeID(n)), parallel.Arrival(graph.NodeID(n))
		if ga == nil || gb == nil {
			if ga != gb {
				return fmt.Errorf("node %d: one pass has an arrival, the other does not", n)
			}
			continue
		}
		if err := equalDists(fmt.Sprintf("node %d", n), gb, ga); err != nil {
			return err
		}
	}
	return nil
}

// propResizeFresh: a session's incremental resize commits must land on
// exactly the analysis a fresh full pass over the resized design
// computes — the incremental recompute may prune work, never precision.
func propResizeFresh(ctx context.Context, lib *cell.Library, sp circuitgen.Spec) error {
	d, err := buildDesign(lib, sp)
	if err != nil {
		return err
	}
	dt := d.SuggestDT(metaBins)
	s, err := session.Open(ctx, d, dt, core.Percentile(0.99), 2, nil)
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(sp.Seed ^ 0x5e5510))
	for _, g := range sampleGates(r, d.NL.NumGates(), 4) {
		if _, err := s.Resize(ctx, g, latticeWidth(r, lib)); err != nil {
			return fmt.Errorf("resize gate %d: %w", g, err)
		}
	}
	sessionSink, err := s.SinkDist()
	if err != nil {
		return err
	}
	resized, err := s.Snapshot()
	if err != nil {
		return err
	}
	fresh, err := ssta.Analyze(ctx, resized, dt)
	if err != nil {
		return fmt.Errorf("fresh analyze: %w", err)
	}
	return equalDists("incremental vs fresh sink", sessionSink, fresh.SinkDist())
}

// propRollbackRestores: checkpoint, mutate, rollback must restore the
// pre-checkpoint sink distribution and widths bit for bit.
func propRollbackRestores(ctx context.Context, lib *cell.Library, sp circuitgen.Spec) error {
	d, err := buildDesign(lib, sp)
	if err != nil {
		return err
	}
	s, err := session.Open(ctx, d, d.SuggestDT(metaBins), core.Percentile(0.99), 2, nil)
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	defer s.Close()
	before, err := s.SinkDist()
	if err != nil {
		return err
	}
	widthsBefore := make(map[netlist.GateID]float64)
	r := rand.New(rand.NewSource(sp.Seed ^ 0x011bac4))
	gates := sampleGates(r, d.NL.NumGates(), 5)
	for _, g := range gates {
		w, err := s.Width(g)
		if err != nil {
			return err
		}
		widthsBefore[g] = w
	}
	if _, err := s.Checkpoint(); err != nil {
		return err
	}
	for _, g := range gates {
		if _, err := s.Resize(ctx, g, latticeWidth(r, lib)); err != nil {
			return fmt.Errorf("resize gate %d: %w", g, err)
		}
	}
	if err := s.Rollback(); err != nil {
		return err
	}
	after, err := s.SinkDist()
	if err != nil {
		return err
	}
	if err := equalDists("sink after rollback", after, before); err != nil {
		return err
	}
	for g, want := range widthsBefore {
		got, err := s.Width(g)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("gate %d width after rollback = %v, want %v", g, got, want)
		}
	}
	return nil
}

// propWhatIfCommit: an uncommitted WhatIf must predict exactly the
// objective that committing the same resize produces.
func propWhatIfCommit(ctx context.Context, lib *cell.Library, sp circuitgen.Spec) error {
	d, err := buildDesign(lib, sp)
	if err != nil {
		return err
	}
	s, err := session.Open(ctx, d, d.SuggestDT(metaBins), core.Percentile(0.99), 2, nil)
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(sp.Seed ^ 0x3a7c0))
	for _, g := range sampleGates(r, d.NL.NumGates(), 3) {
		w := latticeWidth(r, lib)
		predicted, err := s.WhatIf(ctx, g, w)
		if err != nil {
			return fmt.Errorf("what-if gate %d: %w", g, err)
		}
		if _, err := s.Checkpoint(); err != nil {
			return err
		}
		if _, err := s.Resize(ctx, g, w); err != nil {
			return fmt.Errorf("commit gate %d: %w", g, err)
		}
		committed, err := s.Objective()
		if err != nil {
			return err
		}
		if err := s.Rollback(); err != nil {
			return err
		}
		if predicted.Objective != committed {
			return fmt.Errorf("gate %d width %v: what-if predicts objective %x, commit yields %x",
				g, w, predicted.Objective, committed)
		}
	}
	return nil
}

// propWidenNeverSlower: widening a gate must never worsen the mean of
// any of that gate's own pin-to-pin delay distributions — EQ 1 says its
// drive strengthens while its output load is unaffected by its own
// width. The comparison allows half a grid bin: the distribution means
// are discretized, and a width step whose analytic improvement is
// smaller than the snap-to-grid error may tie, but never regress by
// more than the snap.
func propWidenNeverSlower(ctx context.Context, lib *cell.Library, sp circuitgen.Spec) error {
	d, err := buildDesign(lib, sp)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	dt := d.SuggestDT(metaBins)
	r := rand.New(rand.NewSource(sp.Seed ^ 0x51de))
	for _, g := range sampleGates(r, d.NL.NumGates(), 6) {
		if err := ctx.Err(); err != nil {
			return err
		}
		w1 := latticeWidth(r, lib)
		w2 := w1 + float64(1+r.Intn(4))*lib.DeltaW
		if w2 > lib.WMax {
			w2 = lib.WMax
		}
		for _, eid := range d.E.GateEdges[g] {
			if d.E.EdgeGate[eid] != g {
				continue // a fanin driver's edge: its load grows with w, legitimately slower
			}
			narrow, err := d.EdgeDelayDistAt(dt, eid, g, w1)
			if err != nil {
				return err
			}
			wide, err := d.EdgeDelayDistAt(dt, eid, g, w2)
			if err != nil {
				return err
			}
			if wide.Mean() > narrow.Mean()+dt/2 {
				return fmt.Errorf("gate %d edge %d: widening %v->%v raises mean delay %v -> %v",
					g, eid, w1, w2, narrow.Mean(), wide.Mean())
			}
		}
	}
	return nil
}

// propDelayCacheIdentity: the delay-distribution memo cache must be
// observationally invisible — a full analysis with the cache detached
// is bit-identical at every node to one that memoizes.
func propDelayCacheIdentity(ctx context.Context, lib *cell.Library, sp circuitgen.Spec) error {
	cached, err := buildDesign(lib, sp)
	if err != nil {
		return err
	}
	uncached, err := buildDesign(lib, sp)
	if err != nil {
		return err
	}
	uncached.DropDelayCache()
	dt := cached.SuggestDT(metaBins)
	aCached, err := ssta.Analyze(ctx, cached, dt)
	if err != nil {
		return fmt.Errorf("cached analyze: %w", err)
	}
	aDirect, err := ssta.Analyze(ctx, uncached, dt)
	if err != nil {
		return fmt.Errorf("uncached analyze: %w", err)
	}
	hits, misses, _, _ := cached.DelayCacheStats()
	if hits+misses == 0 {
		return fmt.Errorf("delay cache saw no traffic during a full analysis")
	}
	for n := 0; n < cached.E.G.NumNodes(); n++ {
		ga, gb := aCached.Arrival(graph.NodeID(n)), aDirect.Arrival(graph.NodeID(n))
		if ga == nil || gb == nil {
			if ga != gb {
				return fmt.Errorf("node %d: cached and direct passes disagree on having an arrival", n)
			}
			continue
		}
		if err := equalDists(fmt.Sprintf("node %d cached-vs-direct", n), ga, gb); err != nil {
			return err
		}
	}
	return nil
}
