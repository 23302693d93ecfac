package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"statsize/internal/cell"
	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/netlist"
)

// pct is a local p-quantile objective (core's Percentile aliases the
// same interface; the session package must not depend on core).
type pct float64

func (p pct) Eval(s *dist.Dist) float64 { return s.Percentile(float64(p)) }
func (p pct) String() string            { return fmt.Sprintf("p%g", 100*float64(p)) }

// open opens a c17 session that the test's cleanup closes.
func open(t *testing.T) *Session {
	t.Helper()
	s := openUnclosed(t)
	t.Cleanup(func() { s.Close() })
	return s
}

// openUnclosed opens a c17 session with no cleanup. The lock tests use
// it: after a watchdog failure the session may stay locked, and a
// cleanup Close would then hang the whole run.
func openUnclosed(t *testing.T) *Session {
	t.Helper()
	lib := cell.Default180nm()
	d, err := design.New(netlist.C17(lib), lib)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(context.Background(), d, d.SuggestDT(500), pct(0.99), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// within runs call and returns its error, failing the test if call has
// not returned after two seconds: a session call that blocks on a lock
// nobody will release fails here instead of hanging the run.
func within(t *testing.T, name string, call func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return within 2s: the session stayed locked", name)
		return nil
	}
}

func TestOpenValidation(t *testing.T) {
	lib := cell.Default180nm()
	d, err := design.New(netlist.C17(lib), lib)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(context.Background(), d, d.SuggestDT(500), nil, 0, nil); err == nil {
		t.Error("nil objective accepted")
	}
	if _, err := Open(context.Background(), d, -1, pct(0.99), 0, nil); err == nil {
		t.Error("negative grid accepted")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Open(canceled, d, d.SuggestDT(500), pct(0.99), 0, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("open with canceled ctx: %v", err)
	}
}

func TestTxLifecycle(t *testing.T) {
	s := open(t)
	ctx := context.Background()

	err := s.Do(func(tx *Tx) error {
		objBefore := tx.Objective()
		if depth := tx.Checkpoint(); depth != 1 || tx.CheckpointDepth() != 1 {
			t.Fatalf("depth %d, CheckpointDepth %d", depth, tx.CheckpointDepth())
		}
		rs, err := tx.Resize(ctx, 0, 2)
		if err != nil {
			return err
		}
		if rs.OldWidth != tx.Design().Lib.WMin || rs.NewWidth != 2 {
			t.Errorf("resize widths %+v", rs)
		}
		if rs.NodesRecomputed <= 0 || rs.NodesRecomputed > rs.FullPassNodes {
			t.Errorf("implausible recompute count %d", rs.NodesRecomputed)
		}
		if err := tx.Rollback(); err != nil {
			return err
		}
		if tx.Objective() != objBefore {
			t.Error("rollback did not restore the objective")
		}
		if err := tx.Rollback(); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("err %v, want ErrNoCheckpoint", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The session is usable again once Do returns.
	if _, err := s.Objective(); err != nil {
		t.Fatal(err)
	}
}

// TestDoReleasesOnEveryExit pins the scoped lock: whether f returns
// normally, returns an error or panics, Do leaves the session unlocked,
// so the next session call returns (under a watchdog, so a leaked lock
// fails instead of hanging). A closed session refuses Do without
// calling f.
func TestDoReleasesOnEveryExit(t *testing.T) {
	s := openUnclosed(t)
	boom := errors.New("boom")
	exits := []struct {
		name string
		f    func(*Tx) error
		want error
	}{
		{"return", func(*Tx) error { return nil }, nil},
		{"error", func(*Tx) error { return boom }, boom},
		{"panic", func(*Tx) error { panic(boom) }, boom},
	}
	for _, e := range exits {
		var got error
		func() {
			defer func() {
				if r := recover(); r != nil {
					got = r.(error)
				}
			}()
			got = s.Do(e.f)
		}()
		if got != e.want {
			t.Errorf("%s exit: Do gave %v, want %v", e.name, got, e.want)
		}
		if err := within(t, e.name+" exit, then Objective", func() error {
			_, err := s.Objective()
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	called := false
	if err := s.Do(func(*Tx) error { called = true; return nil }); !errors.Is(err, ErrClosed) || called {
		t.Errorf("Do on a closed session: err %v, f called %v; want ErrClosed without f", err, called)
	}
}

func TestWhatIfDoesNotCommit(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	sink0, err := s.SinkDist()
	if err != nil {
		t.Fatal(err)
	}
	// Not every gate's perturbation reaches the sink (that pruning is
	// the point), but at least one c17 gate must show a positive exact
	// sensitivity.
	numGates, err := s.NumGates()
	if err != nil {
		t.Fatal(err)
	}
	bestSens := 0.0
	for g := netlist.GateID(0); int(g) < numGates; g++ {
		r, err := s.WhatIf(ctx, g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if r.Sensitivity > bestSens {
			bestSens = r.Sensitivity
		}
		if r.NodesVisited <= 0 {
			t.Errorf("gate %d: visited %d nodes", g, r.NodesVisited)
		}
	}
	if bestSens <= 0 {
		t.Error("no c17 gate has positive what-if sensitivity")
	}
	sink1, err := s.SinkDist()
	if err != nil {
		t.Fatal(err)
	}
	if sink0 != sink1 {
		t.Error("WhatIf mutated the analysis")
	}
	lib := cell.Default180nm()
	if w, _ := s.Width(0); w != lib.WMin {
		t.Error("WhatIf mutated the design")
	}
	// Clamped width: sensitivity denominator uses the applied width.
	r2, err := s.WhatIf(ctx, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Width != lib.WMax {
		t.Errorf("width %v not clamped to WMax", r2.Width)
	}
	// Resizing to the current width is a zero-sensitivity no-op.
	r3, err := s.WhatIf(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Sensitivity != 0 || r3.Delta != 0 {
		t.Errorf("no-op what-if reported %+v", r3)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	if _, err := s.WhatIf(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resize(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Slack(ctx, 1); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{
		Resizes:            1,
		NodesRecomputed:    st.NodesRecomputed, // value checked below
		LastResizeNodes:    st.LastResizeNodes,
		WhatIfs:            1,
		WhatIfNodesVisited: st.WhatIfNodesVisited,
		RequiredPasses:     1,
		Checkpoints:        1,
		Rollbacks:          1,
		TotalNodes:         st.TotalNodes,
	}
	if st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	if st.NodesRecomputed <= 0 || st.WhatIfNodesVisited <= 0 || st.TotalNodes <= 0 {
		t.Errorf("zero counters in %+v", st)
	}
}

// TestRollupMatchesStats pins the single accounting path: a session
// opened with a rollup books every operation into it and into its own
// Stats in one call, so the two agree after any mix of operations. A
// failed open books nothing, and only the first Close leaves the live
// count.
func TestRollupMatchesStats(t *testing.T) {
	lib := cell.Default180nm()
	d, err := design.New(netlist.C17(lib), lib)
	if err != nil {
		t.Fatal(err)
	}
	var rollup Counters
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Open(canceled, d, d.SuggestDT(500), pct(0.99), 0, &rollup); err == nil {
		t.Fatal("open with a canceled context succeeded")
	}
	if rollup.Opened() != 0 {
		t.Fatalf("failed open counted: opened %d", rollup.Opened())
	}

	ctx := context.Background()
	s, err := Open(ctx, d, d.SuggestDT(500), pct(0.99), 0, &rollup)
	if err != nil {
		t.Fatal(err)
	}
	if rollup.Opened() != 1 || rollup.Live() != 1 {
		t.Fatalf("after open: opened %d live %d, want 1 1", rollup.Opened(), rollup.Live())
	}
	if _, err := s.WhatIf(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WhatIfBatch(ctx, []Candidate{{0, 2}, {1, 2}, {2, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resize(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	got := [4]int64{rollup.WhatIfs(), rollup.Resizes(), rollup.Checkpoints(), rollup.Rollbacks()}
	want := [4]int64{int64(st.WhatIfs), int64(st.Resizes), int64(st.Checkpoints), int64(st.Rollbacks)}
	if got != want || want != [4]int64{4, 1, 1, 1} {
		t.Fatalf("rollup %v, session stats %v, want both [4 1 1 1]", got, want)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
	if rollup.Opened() != 1 || rollup.Live() != 0 {
		t.Fatalf("after close: opened %d live %d, want 1 0", rollup.Opened(), rollup.Live())
	}
}

func TestDeadlineControlsSlack(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	// A generous deadline gives near-zero violation probability; an
	// impossible one gives certainty.
	if err := s.SetDeadline(1e6); err != nil {
		t.Fatal(err)
	}
	c, err := s.Criticality(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("criticality %v with an infinite deadline", c)
	}
	if err := s.SetDeadline(-1e6); err != nil {
		t.Fatal(err)
	}
	c, err = s.Criticality(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c < 1-1e-9 {
		t.Errorf("criticality %v with an impossible deadline, want ~1", c)
	}
}

// TestRollbackRestoresDeadline: the deadline setting is session state
// and must travel with checkpoints — otherwise a rollback could serve a
// restored required-time cache against a deadline configured later.
func TestRollbackRestoresDeadline(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	if err := s.SetDeadline(-1e6); err != nil { // impossible: criticality 1
		t.Fatal(err)
	}
	if c, err := s.Criticality(ctx, 0); err != nil || c < 1-1e-9 {
		t.Fatalf("criticality %v err %v at impossible deadline", c, err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetDeadline(1e6); err != nil { // generous: criticality 0
		t.Fatal(err)
	}
	if c, err := s.Criticality(ctx, 0); err != nil || c != 0 {
		t.Fatalf("criticality %v err %v at generous deadline", c, err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Back at the checkpoint, the impossible deadline applies again.
	if c, err := s.Criticality(ctx, 0); err != nil || c < 1-1e-9 {
		t.Fatalf("criticality %v err %v after rollback, want ~1 (deadline not restored)", c, err)
	}
}

// TestAcquireBlocksUntilRelease pins the unscoped pair the perfbench
// analysis probe holds a session with: while the Tx from Acquire is
// held it works and every other session call blocks; after Release
// they proceed. Acquire on a closed session fails with ErrClosed.
func TestAcquireBlocksUntilRelease(t *testing.T) {
	s := openUnclosed(t)
	tx, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := s.NumGates()
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("NumGates returned (%v) while the session was acquired", err)
	case <-time.After(100 * time.Millisecond):
	}
	if n := tx.Design().NL.NumGates(); n != 6 {
		t.Errorf("held Tx reads %d gates, want 6", n)
	}
	tx.Release()
	if err := within(t, "NumGates after Release", func() error { return <-blocked }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if tx, err := s.Acquire(); !errors.Is(err, ErrClosed) || tx != nil {
		t.Errorf("Acquire after Close = %v, %v; want nil, ErrClosed", tx, err)
	}
}

// TestAccessorsLockAndCheckClosed runs every single-call Session method
// (all exported methods but Do, Acquire and Close): each must return on
// an open session, so none takes the session lock twice (the self-
// deadlock class of an accessor calling another accessor inside its
// callback), and each must fail with ErrClosed after Close instead of
// reading freed state.
func TestAccessorsLockAndCheckClosed(t *testing.T) {
	s := openUnclosed(t)
	ctx := context.Background()
	calls := []struct {
		name string
		call func() error
	}{
		{"Resize", func() error { _, err := s.Resize(ctx, 0, 2); return err }},
		{"WhatIf", func() error { _, err := s.WhatIf(ctx, 1, 2); return err }},
		{"WhatIfBatch", func() error { _, err := s.WhatIfBatch(ctx, []Candidate{{1, 2}}); return err }},
		{"Checkpoint", func() error { _, err := s.Checkpoint(); return err }},
		{"CheckpointDepth", func() error { _, err := s.CheckpointDepth(); return err }},
		{"Rollback", s.Rollback},
		{"SinkDist", func() error { _, err := s.SinkDist(); return err }},
		{"Percentile", func() error { _, err := s.Percentile(0.5); return err }},
		{"Objective", func() error { _, err := s.Objective(); return err }},
		{"ObjectiveName", func() error {
			name, err := s.ObjectiveName()
			if err == nil && name != "p99" {
				return fmt.Errorf("name %q, want p99", name)
			}
			return err
		}},
		{"Arrival", func() error { _, err := s.Arrival(0); return err }},
		{"Required", func() error { _, err := s.Required(ctx, 0); return err }},
		{"Slack", func() error { _, err := s.Slack(ctx, 0); return err }},
		{"Criticality", func() error { _, err := s.Criticality(ctx, 0); return err }},
		{"SetDeadline", func() error { return s.SetDeadline(1e6) }},
		{"Width", func() error { _, err := s.Width(0); return err }},
		{"TotalWidth", func() error { _, err := s.TotalWidth(); return err }},
		{"NumGates", func() error {
			n, err := s.NumGates()
			if err == nil && n != 6 {
				return fmt.Errorf("%d gates, want 6 (c17)", n)
			}
			return err
		}},
		{"DT", func() error {
			dt, err := s.DT()
			if err == nil && dt <= 0 {
				return fmt.Errorf("dt %v, want positive", dt)
			}
			return err
		}},
		{"Snapshot", func() error { _, err := s.Snapshot(); return err }},
		{"Stats", func() error { _, err := s.Stats(); return err }},
	}
	covered := map[string]bool{"Do": true, "Acquire": true, "Close": true}
	for _, c := range calls {
		covered[c.name] = true
	}
	typ := reflect.TypeOf(s)
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; !covered[name] {
			t.Errorf("Session.%s is missing from the table", name)
		}
	}

	for _, c := range calls {
		if err := within(t, c.name, c.call); err != nil {
			t.Errorf("%s on an open session: %v", c.name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range calls {
		if err := within(t, c.name+" after Close", c.call); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", c.name, err)
		}
	}
}

// TestWhatIfBatchValidation: an invalid candidate fails the whole batch
// deterministically (naming the candidate position) before anything is
// evaluated, and a canceled context fails without evaluation.
func TestWhatIfBatchValidation(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	if _, err := s.WhatIfBatch(ctx, []Candidate{{Gate: 0, Width: 2}, {Gate: 999, Width: 2}}); err == nil {
		t.Error("out-of-range candidate accepted")
	} else if want := "candidate 1"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.WhatIfBatch(canceled, []Candidate{{Gate: 0, Width: 2}}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled batch: %v, want context.Canceled", err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WhatIfs != 0 {
		t.Errorf("failed batches must not count: stats report %d what-ifs", st.WhatIfs)
	}
	// An empty batch succeeds with no results and no accounting.
	res, err := s.WhatIfBatch(ctx, nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: %v results, err %v", res, err)
	}
}

// TestNonFiniteInputsRejected: a NaN width and a non-finite deadline
// fail with an error and leave the session as it was. A NaN width once
// reached the delay model, whose grid index for it walked about 2^63
// bins under the session lock; each call therefore runs on a goroutine
// with a 5 s watchdog, so a hang fails the test instead of the run.
func TestNonFiniteInputsRejected(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		call func(context.Context, *Session) error
	}{
		{"WhatIf", func(ctx context.Context, s *Session) error {
			_, err := s.WhatIf(ctx, 0, nan)
			return err
		}},
		{"WhatIfBatch", func(ctx context.Context, s *Session) error {
			_, err := s.WhatIfBatch(ctx, []Candidate{{Gate: 0, Width: 2}, {Gate: 1, Width: nan}})
			return err
		}},
		{"Resize", func(ctx context.Context, s *Session) error {
			_, err := s.Resize(ctx, 0, nan)
			return err
		}},
		{"SetDeadline/NaN", func(_ context.Context, s *Session) error { return s.SetDeadline(nan) }},
		{"SetDeadline/+Inf", func(_ context.Context, s *Session) error { return s.SetDeadline(math.Inf(1)) }},
		{"SetDeadline/-Inf", func(_ context.Context, s *Session) error { return s.SetDeadline(math.Inf(-1)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Unclosed: a session that hangs stays locked, and a cleanup
			// Close would hang with it.
			s := openUnclosed(t)
			ctx := context.Background()
			n, err := s.NumGates()
			if err != nil {
				t.Fatal(err)
			}
			widths := func() []float64 {
				ws := make([]float64, n)
				for g := range ws {
					if ws[g], err = s.Width(netlist.GateID(g)); err != nil {
						t.Fatal(err)
					}
				}
				return ws
			}
			w0 := widths()
			obj0, err := s.Objective()
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- c.call(ctx, s) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("non-finite input accepted")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("did not return within 5s")
			}
			if w := widths(); !reflect.DeepEqual(w, w0) {
				t.Errorf("widths changed: %v, want %v", w, w0)
			}
			if obj, err := s.Objective(); err != nil || obj != obj0 {
				t.Errorf("objective %v (err %v), want %v", obj, err, obj0)
			}
			if _, err := s.WhatIf(ctx, 0, 2); err != nil {
				t.Errorf("finite what-if after the rejected call: %v", err)
			}
			s.Close()
		})
	}
}
