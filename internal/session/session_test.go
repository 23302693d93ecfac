package session

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

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

func open(t *testing.T) *Session {
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
	t.Cleanup(func() { s.Close() })
	return s
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
// normally, returns an error or panics, Do leaves the session unlocked.
// TryLock makes a missing unlock fail here instead of hanging. A closed
// session refuses Do without calling f.
func TestDoReleasesOnEveryExit(t *testing.T) {
	s := open(t)
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
		// Either TryLock took the lock or the exit leaked it; unlocking
		// covers both, so a failure here does not hang the cleanup.
		leaked := !s.mu.TryLock()
		s.mu.Unlock()
		if leaked {
			t.Errorf("%s exit left the session locked", e.name)
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
	if w, _ := s.Width(0); w != s.tx.Design().Lib.WMin {
		t.Error("WhatIf mutated the design")
	}
	// Clamped width: sensitivity denominator uses the applied width.
	r2, err := s.WhatIf(ctx, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Width != s.tx.Design().Lib.WMax {
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

// TestAccessorsLockAndCheckClosed: NumGates, DT and ObjectiveName must
// behave like every other accessor — serialize on the session lock and
// fail with ErrClosed instead of silently reading freed state.
func TestAccessorsLockAndCheckClosed(t *testing.T) {
	s := open(t)
	if n, err := s.NumGates(); err != nil || n != 6 {
		t.Errorf("NumGates = %d, %v; want 6 (c17)", n, err)
	}
	if dt, err := s.DT(); err != nil || dt <= 0 {
		t.Errorf("DT = %v, %v; want positive", dt, err)
	}
	if name, err := s.ObjectiveName(); err != nil || name != "p99" {
		t.Errorf("ObjectiveName = %q, %v; want p99", name, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NumGates(); !errors.Is(err, ErrClosed) {
		t.Errorf("NumGates after Close: %v, want ErrClosed", err)
	}
	if _, err := s.DT(); !errors.Is(err, ErrClosed) {
		t.Errorf("DT after Close: %v, want ErrClosed", err)
	}
	if _, err := s.ObjectiveName(); !errors.Is(err, ErrClosed) {
		t.Errorf("ObjectiveName after Close: %v, want ErrClosed", err)
	}
	if _, err := s.WhatIfBatch(context.Background(), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("WhatIfBatch after Close: %v, want ErrClosed", err)
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
