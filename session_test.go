package statsize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/ssta"
)

// sessionDT and sessionNumGates unwrap the locked accessors for tests
// that only need the value.
func sessionDT(t testing.TB, s *Session) float64 {
	t.Helper()
	dt, err := s.DT()
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func sessionNumGates(t testing.TB, s *Session) int {
	t.Helper()
	n, err := s.NumGates()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func openSession(t testing.TB, circuit string, opts ...RunOption) (*Engine, *Session) {
	t.Helper()
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.Benchmark(circuit)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Open(context.Background(), d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return eng, s
}

func TestSessionQueries(t *testing.T) {
	_, s := openSession(t, "c432")
	ctx := context.Background()

	sink, err := s.SinkDist()
	if err != nil {
		t.Fatal(err)
	}
	p99, err := s.Percentile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 != sink.Percentile(0.99) {
		t.Errorf("Percentile(0.99) = %v, sink says %v", p99, sink.Percentile(0.99))
	}
	obj, err := s.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if obj != p99 {
		t.Errorf("default objective %v should be the 99th percentile %v", obj, p99)
	}
	if name, err := s.ObjectiveName(); err != nil || name != "p99" {
		t.Errorf("ObjectiveName = %q, want p99", name)
	}

	// Per-gate queries across the whole netlist: arrivals exist, slack
	// distributions exist, criticalities are probabilities, and at least
	// one gate is statistically critical against the default deadline.
	maxCrit := 0.0
	for g := 0; g < sessionNumGates(t, s); g++ {
		arr, err := s.Arrival(GateID(g))
		if err != nil {
			t.Fatal(err)
		}
		if arr == nil || arr.Mean() <= 0 {
			t.Fatalf("gate %d: missing arrival", g)
		}
		crit, err := s.Criticality(ctx, GateID(g))
		if err != nil {
			t.Fatal(err)
		}
		if crit < 0 || crit > 1 {
			t.Fatalf("gate %d: criticality %v outside [0,1]", g, crit)
		}
		if crit > maxCrit {
			maxCrit = crit
		}
	}
	if maxCrit <= 0 {
		t.Error("no gate has positive criticality against the default deadline")
	}

	// Required + slack are mutually consistent: slack = required - arrival
	// in distribution, so mean(slack) ~ mean(required) - mean(arrival).
	g := GateID(0)
	req, err := s.Required(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := s.Arrival(g)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := s.Slack(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(sl.Mean() - (req.Mean() - arr.Mean())); diff > 1e-9 {
		t.Errorf("slack mean %v != required mean - arrival mean %v (diff %v)",
			sl.Mean(), req.Mean()-arr.Mean(), diff)
	}

	// Out-of-range gates error instead of panicking.
	if _, err := s.Arrival(GateID(-1)); err == nil {
		t.Error("negative gate ID accepted")
	}
	if _, err := s.Width(GateID(sessionNumGates(t, s))); err == nil {
		t.Error("out-of-range gate ID accepted")
	}
}

// TestSessionWhatIfMatchesBruteForce is the exactness acceptance check:
// for every candidate gate of c432, the what-if sensitivity from the
// pruned perturbation propagation must equal the sensitivity from an
// unpruned full overlay propagation — the brute-force reference of
// Section 3.1 — bit for bit.
func TestSessionWhatIfMatchesBruteForce(t *testing.T) {
	_, s := openSession(t, "c432", WithConfig(Config{Bins: 400}))
	ctx := context.Background()

	// Independent full analysis of an identical design at the same grid.
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ssta.Analyze(ctx, d, sessionDT(t, s))
	if err != nil {
		t.Fatal(err)
	}
	base := a.Percentile(0.99)
	deltaW := d.Lib.DeltaW

	candidates := 0
	for g := 0; g < d.NL.NumGates(); g++ {
		gid := GateID(g)
		w := d.Width(gid) + deltaW
		if w > d.Lib.WMax {
			continue
		}
		candidates++

		// Brute-force reference: propagate the perturbation through the
		// entire graph with no pruning.
		delays, err := a.PerturbedDelays(gid, w)
		if err != nil {
			t.Fatal(err)
		}
		gr := d.E.G
		sc := ssta.NewScratch()
		arr, dly := a.Overlays(sc)
		for _, ed := range delays {
			dly[ed.Edge] = ed.Delay
		}
		for _, n := range gr.Topo() {
			if n == gr.Source() {
				arr[n] = a.Arrival(n)
				continue
			}
			arr[n] = a.ArrivalWithOverlayInto(n, sc)
		}
		wantSens := (base - arr[gr.Sink()].Percentile(0.99)) / deltaW

		got, err := s.WhatIf(ctx, gid, w)
		if err != nil {
			t.Fatal(err)
		}
		if got.Sensitivity != wantSens {
			t.Fatalf("gate %d: WhatIf sensitivity %v != brute-force %v", g, got.Sensitivity, wantSens)
		}
		if got.NodesVisited <= 0 || got.NodesVisited > gr.NumNodes()-1 {
			t.Fatalf("gate %d: implausible visit count %d", g, got.NodesVisited)
		}
	}
	if candidates == 0 {
		t.Fatal("no candidate gates on c432")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WhatIfs != candidates {
		t.Errorf("stats report %d what-ifs, ran %d", st.WhatIfs, candidates)
	}
	if st.Resizes != 0 {
		t.Errorf("what-ifs must not commit, stats report %d resizes", st.Resizes)
	}
}

// resizeCone returns the structural perturbation cone of resizing gate
// x: every node reachable from the outputs of the affected gates (x and
// its fanin drivers). No bit-exact incremental timer can recompute fewer
// nodes than the part of this cone the perturbation actually reaches,
// and the session's commit must never recompute more.
func resizeCone(d *Design, x GateID) map[graph.NodeID]bool {
	g := d.E.G
	cone := make(map[graph.NodeID]bool)
	var queue []graph.NodeID
	for _, gid := range ssta.AffectedGates(d, x) {
		n := d.E.NodeOf[d.NL.Gate(gid).Out]
		if !cone[n] {
			cone[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, eid := range g.Out(n) {
			to := g.EdgeAt(eid).To
			if !cone[to] {
				cone[to] = true
				queue = append(queue, to)
			}
		}
	}
	return cone
}

// TestSessionResizeIncremental is the incrementality acceptance check:
// a mid-circuit resize on c1908 recomputes fewer than 20% of the nodes
// a full SSTA pass would, with the count visible in the stats API. The
// recompute set is structural — the nodes reachable from the resized
// gate and its fanin drivers — so the test picks its mid-circuit gate
// by that criterion: among gates in the middle band of logic levels,
// the one with the smallest reachable cone (mid-level cones on c1908
// span ~14%..50% of the graph; the commit must track the true cone,
// never the graph). The resized analysis must still match a
// from-scratch pass bit for bit.
func TestSessionResizeIncremental(t *testing.T) {
	_, s := openSession(t, "c1908")
	ctx := context.Background()

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g := snap.E.G
	target, bestCone := GateID(-1), 1<<30
	lo, hi := g.MaxLevel()*2/5, g.MaxLevel()*3/5
	for gi := 0; gi < snap.NL.NumGates(); gi++ {
		lvl := g.Level(snap.E.NodeOf[snap.NL.Gate(GateID(gi)).Out])
		if lvl < lo || lvl > hi {
			continue
		}
		if cone := len(resizeCone(snap, GateID(gi))); cone < bestCone {
			bestCone, target = cone, GateID(gi)
		}
	}
	if target < 0 {
		t.Fatal("no mid-level gate found")
	}

	w, err := s.Width(target)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.Resize(ctx, target, w+snap.Lib.DeltaW)
	if err != nil {
		t.Fatal(err)
	}
	if rs.FullPassNodes != g.NumNodes()-1 {
		t.Errorf("FullPassNodes = %d, want %d", rs.FullPassNodes, g.NumNodes()-1)
	}
	if rs.NodesRecomputed > bestCone {
		t.Errorf("commit recomputed %d nodes, more than the structural cone %d", rs.NodesRecomputed, bestCone)
	}
	if frac := float64(rs.NodesRecomputed) / float64(rs.FullPassNodes); frac >= 0.20 {
		t.Errorf("mid-circuit resize recomputed %d of %d nodes (%.1f%%), want <20%%",
			rs.NodesRecomputed, rs.FullPassNodes, 100*frac)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LastResizeNodes != rs.NodesRecomputed || st.NodesRecomputed != rs.NodesRecomputed || st.Resizes != 1 {
		t.Errorf("stats %+v inconsistent with resize report %+v", st, rs)
	}

	// The incremental commit must equal a from-scratch analysis.
	after, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ssta.Analyze(ctx, after, sessionDT(t, s))
	if err != nil {
		t.Fatal(err)
	}
	sink, err := s.SinkDist()
	if err != nil {
		t.Fatal(err)
	}
	if !dist.ApproxEqual(sink, fresh.SinkDist(), 0) {
		t.Error("incremental commit diverged from full re-analysis")
	}
}

func TestSessionCheckpointRollback(t *testing.T) {
	_, s := openSession(t, "c880")
	ctx := context.Background()

	obj0, err := s.Objective()
	if err != nil {
		t.Fatal(err)
	}
	sink0, err := s.SinkDist()
	if err != nil {
		t.Fatal(err)
	}
	if depth, err := s.Checkpoint(); err != nil || depth != 1 {
		t.Fatalf("first checkpoint depth %d err %v", depth, err)
	}
	if _, err := s.Resize(ctx, 3, 4); err != nil {
		t.Fatal(err)
	}
	if depth, err := s.Checkpoint(); err != nil || depth != 2 {
		t.Fatalf("second checkpoint depth %d err %v", depth, err)
	}
	if _, err := s.Resize(ctx, 7, 8); err != nil {
		t.Fatal(err)
	}
	objMut, err := s.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if objMut >= obj0 {
		t.Logf("note: resizes did not improve objective (%v -> %v)", obj0, objMut)
	}

	// Rollback pops to the post-first-resize state.
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if w, _ := s.Width(7); w != 1 {
		t.Errorf("gate 7 width %v after rollback, want 1 (minimum)", w)
	}
	if w, _ := s.Width(3); w != 4 {
		t.Errorf("gate 3 width %v after rollback, want 4 (committed before checkpoint)", w)
	}
	// Second rollback restores the pristine state bit for bit.
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	sink1, err := s.SinkDist()
	if err != nil {
		t.Fatal(err)
	}
	if !dist.ApproxEqual(sink0, sink1, 0) {
		t.Error("rollback did not restore the sink distribution exactly")
	}
	obj1, err := s.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if obj1 != obj0 {
		t.Errorf("objective %v after full rollback, want %v", obj1, obj0)
	}
	// Rollback stack must now be empty.
	if err := s.Rollback(); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("rollback on empty stack: err = %v, want ErrNoCheckpoint", err)
	}

	// The rolled-back session remains fully usable: the analysis matches
	// a fresh pass over the restored design.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ssta.Analyze(ctx, snap, sessionDT(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !dist.ApproxEqual(sink1, fresh.SinkDist(), 0) {
		t.Error("restored analysis diverged from full re-analysis")
	}
}

func TestSessionRollbackWithoutCheckpoint(t *testing.T) {
	_, s := openSession(t, "c17")
	if err := s.Rollback(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestSessionUseAfterClose(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, err := eng.Open(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("second Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.SinkDist(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("SinkDist after Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Resize(ctx, 0, 2); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Resize after Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.WhatIf(ctx, 0, 2); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("WhatIf after Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Checkpoint after Close: err = %v, want ErrSessionClosed", err)
	}
	if err := s.Rollback(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Rollback after Close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := eng.OptimizeSession(ctx, s, "accelerated", MaxIterations(1)); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("OptimizeSession after Close: err = %v, want ErrSessionClosed", err)
	}
}

// TestSessionConcurrentResize: concurrent Resize calls on one session
// serialize on the session lock (the documented behavior — no error,
// no corruption). Run under -race in CI.
func TestSessionConcurrentResize(t *testing.T) {
	_, s := openSession(t, "c432")
	ctx := context.Background()

	const workers = 8
	numGates := sessionNumGates(t, s)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				g := GateID((w*17 + k*53) % numGates)
				width, err := s.Width(g)
				if err != nil {
					errs[w] = err
					return
				}
				if _, err := s.Resize(ctx, g, width+0.5); err != nil {
					errs[w] = err
					return
				}
				if _, err := s.Percentile(0.99); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Resizes != workers*4 {
		t.Errorf("stats report %d resizes, want %d", st.Resizes, workers*4)
	}

	// After the storm the session must be exactly consistent.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ssta.Analyze(ctx, snap, sessionDT(t, s))
	if err != nil {
		t.Fatal(err)
	}
	sink, err := s.SinkDist()
	if err != nil {
		t.Fatal(err)
	}
	if !dist.ApproxEqual(sink, fresh.SinkDist(), 0) {
		t.Error("concurrent resizes left the analysis inconsistent")
	}
	if err := snap.RecomputeLoads(1e-9); err != nil {
		t.Error(err)
	}
}

// TestSessionResizeCancellation: a canceled Resize is all-or-nothing —
// whether it was canceled before starting or mid-commit, the session
// must be left in its pre-call state and remain usable.
func TestSessionResizeCancellation(t *testing.T) {
	_, s := openSession(t, "c880")

	sink0, err := s.SinkDist()
	if err != nil {
		t.Fatal(err)
	}
	w0, err := s.Width(5)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-canceled context: must fail without touching anything.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Resize(pre, 5, w0+1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled resize: err = %v, want context.Canceled", err)
	}

	// Race a cancellation against a series of resizes; whichever resize
	// observes the cancel mid-commit must restore its pre-image.
	mid, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel2()
	}()
	for g := 0; g < sessionNumGates(t, s); g++ {
		if _, err := s.Resize(mid, GateID(g), w0+1); err != nil {
			break
		}
	}

	// Whatever was committed, the session must be exactly consistent.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ssta.Analyze(context.Background(), snap, sessionDT(t, s))
	if err != nil {
		t.Fatal(err)
	}
	sink, err := s.SinkDist()
	if err != nil {
		t.Fatal(err)
	}
	if !dist.ApproxEqual(sink, fresh.SinkDist(), 0) {
		t.Error("cancellation left the analysis inconsistent with the design")
	}
	if w, _ := s.Width(5); w == w0 && dist.ApproxEqual(sink0, sink, 0) {
		// Everything canceled before the first commit — equally fine.
		t.Log("cancellation fired before any commit")
	}
}

// TestOptimizeSessionInterleaved drives the ROADMAP's "one engine, N
// workloads" story on a single session: query, what-if, manually resize,
// checkpoint, run a full optimizer, and keep querying afterwards.
func TestOptimizeSessionInterleaved(t *testing.T) {
	eng, s := openSession(t, "c432")
	ctx := context.Background()

	before, err := s.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.OptimizeSession(ctx, s, "accelerated", MaxIterations(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || res.FinalObjective >= before {
		t.Fatalf("optimizer made no progress: %+v", res)
	}
	after, err := s.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if after != res.FinalObjective {
		t.Errorf("session objective %v != optimizer final %v — session out of sync", after, res.FinalObjective)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Resizes != res.Iterations {
		t.Errorf("session saw %d resizes for %d optimizer iterations", st.Resizes, res.Iterations)
	}
	// Roll the whole optimization back.
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	objRolled, err := s.Objective()
	if err != nil {
		t.Fatal(err)
	}
	if objRolled != before {
		t.Errorf("rollback after optimizer run: objective %v, want %v", objRolled, before)
	}
}

// TestOptimizeRejectsNaNObjective: a percentile outside [0, 1] reads NaN
// on every distribution, so every sensitivity would be NaN. Each
// statistical optimizer must refuse the run and size nothing.
func TestOptimizeRejectsNaNObjective(t *testing.T) {
	eng, s := openSession(t, "c432")
	w0, err := s.TotalWidth()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"accelerated", "brute-force", "heuristic-levels", "multi-size"} {
		res, err := eng.OptimizeSession(context.Background(), s, name,
			ForObjective(Percentile(1.5)), MaxIterations(3))
		if err == nil {
			t.Errorf("%s: optimized a NaN objective over %d iterations", name, res.Iterations)
		}
		if w, err := s.TotalWidth(); err != nil || w != w0 {
			t.Errorf("%s: total width %v (err %v), want %v unchanged", name, w, err, w0)
		}
	}
}

// TestWhatIfBatchMatchesSerial is the batch determinism acceptance
// check: WhatIfBatch over every candidate gate must return, in
// candidate order, results bit-identical to the equivalent serial
// WhatIf loop — same sensitivities, same objectives, same visit counts
// — and the stats accounting must aggregate identically. The batch
// runs on four workers whatever the host, so any completion-order
// dependence or shared state in the fan-out would show up as a diff (or
// as a race under -race).
func TestWhatIfBatchMatchesSerial(t *testing.T) {
	_, serialS := openSession(t, "c880", WithConfig(Config{Bins: 400, Parallelism: 1}))
	_, batchS := openSession(t, "c880", WithConfig(Config{Bins: 400, Parallelism: 4}))
	ctx := context.Background()

	numGates := sessionNumGates(t, serialS)
	var cands []Candidate
	for g := 0; g < numGates; g++ {
		gid := GateID(g)
		w, err := serialS.Width(gid)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, Candidate{Gate: gid, Width: w + 0.5})
	}

	want := make([]WhatIfResult, len(cands))
	for i, c := range cands {
		r, err := serialS.WhatIf(ctx, c.Gate, c.Width)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got, err := batchS.WhatIfBatch(ctx, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d results for %d candidates", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d (gate %d): batch %+v != serial %+v", i, cands[i].Gate, got[i], want[i])
		}
	}

	stSerial, err := serialS.Stats()
	if err != nil {
		t.Fatal(err)
	}
	stBatch, err := batchS.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stBatch.WhatIfs != stSerial.WhatIfs || stBatch.WhatIfNodesVisited != stSerial.WhatIfNodesVisited {
		t.Errorf("batch stats (%d what-ifs, %d nodes) != serial stats (%d, %d)",
			stBatch.WhatIfs, stBatch.WhatIfNodesVisited, stSerial.WhatIfs, stSerial.WhatIfNodesVisited)
	}
	// Nothing committed on either session.
	if stBatch.Resizes != 0 {
		t.Errorf("batch committed %d resizes", stBatch.Resizes)
	}
}

// TestWhatIfBatchConcurrent hammers WhatIfBatch from several goroutines
// while others query, resize, checkpoint and roll back the same session
// — the -race coverage for the one-lock-many-workers design. A batch
// holds the session lock for its whole evaluation, so each one sees a
// frozen snapshot regardless of the surrounding mutations; the per-batch
// checks (results in candidate order, every candidate evaluated) hold
// under any interleaving, and the post-storm check proves the analysis
// ends exactly consistent with the design. The session has four workers
// whatever the host, so each batch fans out.
func TestWhatIfBatchConcurrent(t *testing.T) {
	_, s := openSession(t, "c432", WithConfig(Config{Parallelism: 4}))
	ctx := context.Background()
	numGates := sessionNumGates(t, s)

	cands := make([]Candidate, 0, 16)
	for g := 0; g < 16; g++ {
		cands = append(cands, Candidate{Gate: GateID(g % numGates), Width: 3})
	}

	const hammers = 6
	var wg sync.WaitGroup
	errs := make([]error, hammers)
	for w := 0; w < hammers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				switch w % 3 {
				case 0: // batch evaluation
					res, err := s.WhatIfBatch(ctx, cands)
					if err != nil {
						errs[w] = err
						return
					}
					for i, r := range res {
						if r.Gate != cands[i].Gate {
							errs[w] = fmt.Errorf("batch result %d out of order: gate %d, want %d", i, r.Gate, cands[i].Gate)
							return
						}
						if r.NodesVisited <= 0 {
							errs[w] = fmt.Errorf("batch result %d: nothing visited: %+v", i, r)
							return
						}
					}
				case 1: // queries
					if _, err := s.Percentile(0.99); err != nil {
						errs[w] = err
						return
					}
					if _, err := s.Arrival(GateID((w + k) % numGates)); err != nil {
						errs[w] = err
						return
					}
				case 2: // mutations with rollback
					if _, err := s.Checkpoint(); err != nil {
						errs[w] = err
						return
					}
					gid := GateID((w*5 + k) % numGates)
					width, err := s.Width(gid)
					if err != nil {
						errs[w] = err
						return
					}
					if _, err := s.Resize(ctx, gid, width+0.5); err != nil {
						errs[w] = err
						return
					}
					if err := s.Rollback(); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("hammer %d: %v", w, err)
		}
	}

	// The session must end exactly consistent with its design.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ssta.Analyze(ctx, snap, sessionDT(t, s))
	if err != nil {
		t.Fatal(err)
	}
	sink, err := s.SinkDist()
	if err != nil {
		t.Fatal(err)
	}
	if !dist.ApproxEqual(sink, fresh.SinkDist(), 0) {
		t.Error("concurrent batches left the analysis inconsistent")
	}
}
