package core

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"statsize/internal/netlist"
	"statsize/internal/session"
	"statsize/internal/ssta"
)

// TestAcceleratedFrontStorageAccounting pins the lifetime of recycled
// front storage: after every accelerated iteration no worker's
// recycler holds a value, no worker's foreign list still waits to drop
// one, and every overlay is nil again; once the run returns no
// recycler retains a free list. It covers pruning, each ablation that
// keeps fronts alive longer, the MultiSize and heuristic round shapes,
// and three workers stepping one round's fronts.
func TestAcceleratedFrontStorageAccounting(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"no-pruning", Config{DisablePruning: true}},
		{"no-elision", Config{DisableDeadFrontElision: true}},
		{"multi-size", Config{MultiSize: 3}},
		{"heuristic-levels", Config{HeuristicLevels: 4}},
		{"three-workers", Config{Parallelism: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Bins, cfg.MaxIterations = 300, 3
			if cfg.Parallelism == 0 {
				cfg.Parallelism = 2
			}
			s, err := OpenSession(context.Background(), newDesign(t, "c880"), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var scratch []*ssta.Scratch
			retained, foreign := 0, 0
			inner := func(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, hint netlist.GateID, c *crew) (innerResult, error) {
				scratch = scratch[:0]
				for _, w := range c.workers {
					scratch = append(scratch, w.sc)
				}
				ir, err := acceleratedIteration(ctx, a, cfg, base, hint, c)
				for _, w := range c.workers {
					if len(w.foreign) != 0 {
						t.Errorf("worker %d still lists %d consumed values another worker kept", w.id, len(w.foreign))
					}
					foreign = max(foreign, cap(w.foreign))
				}
				for w, sc := range scratch {
					if n := sc.Recycler().Held(); n != 0 {
						t.Errorf("worker %d holds %d front values after the iteration", w, n)
					}
					retained += sc.Recycler().FootprintBytes()
					arr, delay := a.Overlays(sc)
					for n, o := range arr {
						if o != nil {
							t.Fatalf("worker %d: arrival overlay of node %d left set", w, n)
						}
					}
					for e, o := range delay {
						if o != nil {
							t.Fatalf("worker %d: delay overlay of edge %d left set", w, e)
						}
					}
				}
				return ir, err
			}
			res, err := statisticalDescent(context.Background(), s, cfg, "accelerated", inner)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations == 0 || retained == 0 {
				t.Fatalf("vacuous run: %d iterations, %d bytes of free lists seen", res.Iterations, retained)
			}
			if len(scratch) != cfg.Parallelism {
				t.Fatalf("run used %d workers, want %d", len(scratch), cfg.Parallelism)
			}
			t.Logf("largest foreign list: %d values", foreign)
			for w, sc := range scratch {
				if b := sc.Recycler().FootprintBytes(); b != 0 {
					t.Errorf("worker %d retains %d bytes of front storage after the run", w, b)
				}
			}
		})
	}
}

// TestWarmIterationAllocsC1908 pins the allocation volume of one warm
// accelerated iteration (c1908, 400 bins, 2 workers): with front
// storage recycled, what remains is per-front bookkeeping, well under
// the 4 MiB bound. Persisting every live node to the heap allocated
// about 17 MB here.
func TestWarmIterationAllocsC1908(t *testing.T) {
	if testing.Short() {
		t.Skip("c1908 iteration in short mode")
	}
	cfg := Config{Bins: 400, Parallelism: 2, MaxIterations: 12}.withDefaults()
	s, err := OpenSession(context.Background(), newDesign(t, "c1908"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Size into the regime where pruning is weak and fronts run long.
	if _, err := Accelerated(context.Background(), s, cfg); err != nil {
		t.Fatal(err)
	}
	err = s.Do(func(tx *session.Tx) error {
		a, c := tx.Analysis(), newCrew(tx.Scratch())
		defer c.close()
		base := cfg.Objective.Eval(a.SinkDist())
		iterate := func() {
			if _, err := acceleratedIteration(context.Background(), a, cfg, base, netlist.NoGate, c); err != nil {
				t.Fatal(err)
			}
		}
		iterate() // warm the arenas, the recyclers and the delay memo
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		iterate()
		runtime.ReadMemStats(&after)
		const limit = 4 << 20
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("warm accelerated iteration allocated %d bytes (%d objects), want < %d",
				got, after.Mallocs-before.Mallocs, limit)
		} else {
			t.Logf("warm accelerated iteration: %d bytes in %d objects", got, after.Mallocs-before.Mallocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLiveNodeSize pins liveNode at 32 bytes: the keeper ordinal lives
// in what would otherwise be padding, so tracking ownership per value
// costs fronts no memory.
func TestLiveNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(liveNode{}); got != 32 {
		t.Errorf("liveNode is %d bytes, want 32", got)
	}
}
