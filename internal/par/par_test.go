package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			const n = 1000
			counts := make([]atomic.Int32, n)
			err := Run(context.Background(), workers, n, func(i int) error {
				counts[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("index %d ran %d times", i, c)
				}
			}
		})
	}
}

// TestRunLowestIndexErrorWins: with several failing indices, the
// reported error must be the lowest-index one — the property that keeps
// parallel failure deterministic.
func TestRunLowestIndexErrorWins(t *testing.T) {
	wantErr := errors.New("boom-10")
	// Indices 10, 20, 30 fail. Run enough times that scheduling varies.
	for trial := 0; trial < 20; trial++ {
		err := Run(context.Background(), 8, 40, func(i int) error {
			switch i {
			case 10:
				return wantErr
			case 20, 30:
				return fmt.Errorf("boom-%d", i)
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("trial %d: got %v, want boom-10 (lowest index)", trial, err)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int32{}
	err := Run(ctx, 4, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 0 {
		// A pre-canceled context should skip everything (workers check
		// before drawing an index, but a few draws may slip through on
		// other implementations — pin the strict behavior we provide).
		t.Errorf("%d calls ran under a pre-canceled context", got)
	}
}

// TestPoolBarrierAcrossBatches: a pool reused for dependent batches
// must provide a full barrier between them — batch k+1 reads what batch
// k wrote, the exact structure of the level-parallel SSTA pass.
func TestPoolBarrierAcrossBatches(t *testing.T) {
	p := NewPool(make([]struct{}, 8))
	defer p.Close()
	const n = 256
	cur := make([]int, n)
	next := make([]int, n)
	for round := 1; round <= 50; round++ {
		err := p.Run(context.Background(), n, func(_ struct{}, i int) error {
			// Read a neighbor from the previous round; any missing
			// barrier shows up as a torn read under -race or as a wrong
			// value here.
			next[i] = cur[(i+1)%n] + 1
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cur, next = next, cur
		for i := range cur {
			if cur[i] != round {
				t.Fatalf("round %d: slot %d = %d, want %d (barrier violated)", round, i, cur[i], round)
			}
		}
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("non-positive parallelism must normalize to >= 1")
	}
	if Workers(5) != 5 {
		t.Error("positive parallelism must pass through")
	}
}

// TestRunWithHandsEachWorkerItsState: every index is processed exactly
// once, every state fn receives is one of the states passed in, and no
// two goroutines ever hold the same state at once — the contract
// per-worker scratch arenas rest on.
func TestRunWithHandsEachWorkerItsState(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 200
		type state struct {
			id   int
			busy atomic.Bool
			runs atomic.Int64
		}
		states := make([]*state, workers)
		for w := range states {
			states[w] = &state{id: w}
		}
		seen := make([]int32, n)
		err := RunWith(context.Background(), states, n, func(s *state, i int) error {
			if s != states[s.id] {
				t.Errorf("index %d got a state the pool was not given", i)
			}
			if !s.busy.CompareAndSwap(false, true) {
				t.Errorf("state %d handed to two goroutines at once", s.id)
			}
			atomic.AddInt32(&seen[i], 1)
			s.runs.Add(1)
			s.busy.Store(false)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if seen[i] != 1 {
				t.Fatalf("workers=%d: index %d processed %d times", workers, i, seen[i])
			}
		}
		total := int64(0)
		for _, s := range states {
			total += s.runs.Load()
		}
		if total != n {
			t.Fatalf("workers=%d: %d total invocations, want %d", workers, total, n)
		}
		if workers == 1 && states[0].runs.Load() != n {
			t.Error("serial path must hand states[0] to every index")
		}
	}
}

// TestPoolSerialRunsFirstStateInOrder: a one-state pool hands that
// state to every index and runs on the calling goroutine in index
// order.
func TestPoolSerialRunsFirstStateInOrder(t *testing.T) {
	p := NewPool([]string{"only"})
	defer p.Close()
	last := -1
	err := p.Run(context.Background(), 10, func(s string, i int) error {
		if s != "only" {
			t.Errorf("serial pool handed state %q", s)
		}
		if i != last+1 {
			t.Errorf("serial pool ran index %d after %d", i, last)
		}
		last = i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolNarrowBatchWakesFewWorkers: a batch with fewer indices than
// the pool has workers goes to that many workers only, so every state
// fn sees is among the first n however the pool schedules.
func TestPoolNarrowBatchWakesFewWorkers(t *testing.T) {
	states := make([]int, 16)
	for w := range states {
		states[w] = w
	}
	p := NewPool(states)
	defer p.Close()
	const n = 2
	for trial := 0; trial < 200; trial++ {
		var ran atomic.Int32
		err := p.Run(context.Background(), n, func(w, i int) error {
			if w >= n {
				t.Errorf("trial %d: index %d ran on worker %d, want one of the first %d", trial, i, w, n)
			}
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != n {
			t.Fatalf("trial %d: %d calls, want %d", trial, got, n)
		}
	}
}
