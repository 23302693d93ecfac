package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"statsize/internal/session"
	"statsize/internal/ssta"
)

// TestAcceleratedFrontStorageAccounting pins the lifetime of recycled
// front storage: after every accelerated iteration no worker's
// recycler holds a value, no worker's foreign list still waits to drop
// one, and every overlay is nil again; once the run returns no
// recycler retains a free list. It covers pruning, the MultiSize and
// heuristic round shapes, and three workers stepping one round's fronts.
func TestAcceleratedFrontStorageAccounting(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
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
			inner := func(ctx context.Context, a *ssta.Analysis, cfg Config, base float64, c *crew) (innerResult, error) {
				scratch = scratch[:0]
				for _, w := range c.workers {
					scratch = append(scratch, w.sc)
				}
				ir, err := acceleratedIteration(ctx, a, cfg, base, c)
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
			res, err := descend(context.Background(), s, cfg, "accelerated", sinkObjective, inner)
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

// TestIterationsMemoryless pins that an accelerated run carries no
// state from one iteration to the next: on one session, ten
// one-iteration runs must record exactly what one ten-iteration run
// records from the same design — gates, sensitivity, objective, width
// and the considered, pruned and visited counts — apart from the
// iteration number and the elapsed time. A one-iteration run, such as
// perfbench's optimize op, then costs exactly what the same iteration
// costs inside a long run. The name keeps it out of CI's repeated
// race runs of every Front and Accelerated test, where its three
// circuits would dominate the step.
func TestIterationsMemoryless(t *testing.T) {
	const iters = 10
	for _, name := range []string{"c432", "c880", "c1908"} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			cfg := Config{Bins: 400, MaxIterations: iters}
			long, err := runOn(t, newDesign(t, name), cfg, Accelerated)
			if err != nil {
				t.Fatal(err)
			}
			if long.Iterations != iters {
				t.Fatalf("long run stopped after %d iterations, want %d", long.Iterations, iters)
			}
			s, err := OpenSession(ctx, newDesign(t, name), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			one := cfg
			one.MaxIterations = 1
			for i, want := range long.Records {
				res, err := Accelerated(ctx, s, one)
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations != 1 {
					t.Fatalf("one-iteration run %d sized nothing", i)
				}
				got := res.Records[0]
				got.Iter, got.Elapsed = want.Iter, want.Elapsed
				if !reflect.DeepEqual(got, want) {
					t.Errorf("iteration %d: the one-iteration run recorded %+v, the long run %+v", i, got, want)
				}
			}
		})
	}
}

// TestWarmIterationAllocsC1908 pins the allocation volume of a warm
// accelerated iteration (c1908, 400 bins, 2 workers). The run's front
// storage is reused and front values are recycled, so what remains is
// what the iteration keeps or hands off — the candidate list, the
// picks, the closures each round passes to the pool — plus recycler
// growth while a worker's free lists reach its peak working set. That
// growth depends on which worker steps which front, so the crew is
// warmed for three iterations and the bound applies to the mean of the
// next four. Rebuilding every front from nil slices allocated about
// 1.6 MB in 9,500 objects per iteration here, and persisting every live
// node to the heap about 17 MB.
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
			if _, err := acceleratedIteration(context.Background(), a, cfg, base, c); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the front storage, the arenas, the recyclers and the delay
		// memo.
		for range 3 {
			iterate()
		}
		const measured = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range measured {
			iterate()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / measured
		objects := (after.Mallocs - before.Mallocs) / measured
		const maxBytes, maxObjects = 384 << 10, 1000
		if bytes >= maxBytes || objects >= maxObjects {
			t.Errorf("warm accelerated iteration allocated %d bytes in %d objects on average, want < %d bytes and < %d objects",
				bytes, objects, maxBytes, maxObjects)
		} else {
			t.Logf("warm accelerated iteration: %d bytes in %d objects on average", bytes, objects)
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
