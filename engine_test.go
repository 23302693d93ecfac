package statsize

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func newEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	eng, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineOptionsApply(t *testing.T) {
	lib := DefaultLibrary()
	eng := newEngine(t,
		WithLibrary(lib),
		WithBins(400),
		WithObjective(Percentile(0.95)),
		WithParallelism(3),
	)
	if eng.Library() != lib {
		t.Error("WithLibrary not applied")
	}
	if eng.Bins() != 400 {
		t.Error("WithBins not applied")
	}
	if eng.Objective() != Percentile(0.95) {
		t.Error("WithObjective not applied")
	}
	if eng.Parallelism() != 3 {
		t.Error("WithParallelism not applied")
	}
}

func TestEngineOptionValidation(t *testing.T) {
	// Every rejected option value comes back as a typed *ConfigError
	// naming the option, so callers can tell misconfiguration apart
	// from environmental failures.
	wantConfigError := func(opt string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: invalid value accepted", opt)
			return
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err %v is not a *ConfigError", opt, err)
			return
		}
		if ce.Option != opt {
			t.Errorf("%s: ConfigError names option %q", opt, ce.Option)
		}
	}
	_, err := New(WithBins(-1))
	wantConfigError("WithBins", err)
	// Zero was historically accepted by New (it aliased "default") and
	// then panicked deep inside Design.SuggestDT; it must fail at
	// construction like every other non-positive budget.
	_, err = New(WithBins(0))
	wantConfigError("WithBins", err)
	_, err = New(WithParallelism(-2))
	wantConfigError("WithParallelism", err)

	bad := DefaultLibrary()
	bad.WMin = -1
	if _, err := New(WithLibrary(bad)); err == nil {
		t.Error("invalid library accepted")
	}
}

func TestEngineBenchmarkCachesAndClones(t *testing.T) {
	eng := newEngine(t)
	d1, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("Benchmark returned the same design twice")
	}
	if d1.NL != d2.NL {
		t.Error("clones should share the immutable netlist")
	}
	// Sizing one clone must not leak into the other.
	d1.SetWidth(0, d1.Lib.WMax)
	if d2.Width(0) == d1.Width(0) {
		t.Error("widths leaked between benchmark clones")
	}
	d3, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	if d3.Width(0) != d3.Lib.WMin {
		t.Error("cache was polluted by a caller's resize")
	}
}

func TestEngineOptimizeDoesNotMutateCaller(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	before := d.TotalWidth()
	res, err := eng.Optimize(context.Background(), d, "accelerated", MaxIterations(3))
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalWidth() != before {
		t.Error("Optimize mutated the caller's design")
	}
	if res.Design == nil || res.Design == d {
		t.Fatal("Result.Design must be a private clone")
	}
	if res.Design.TotalWidth() <= before {
		t.Error("clone was not sized")
	}
	if res.FinalWidth != res.Design.TotalWidth() {
		t.Error("Result.FinalWidth disagrees with the sized clone")
	}
}

func TestEngineObjectiveDefaultsAndOverrides(t *testing.T) {
	eng := newEngine(t, WithObjective(Mean{}))
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	// The engine default objective flows into runs...
	res, err := eng.Optimize(context.Background(), d, "accelerated", MaxIterations(1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.AnalyzeSSTA(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.InitialObjective, a.SinkDist().Mean(); got != want {
		t.Errorf("engine objective not used: initial %v, want mean %v", got, want)
	}
	// ...and a per-run override wins.
	res99, err := eng.Optimize(context.Background(), d, "accelerated",
		MaxIterations(1), ForObjective(Percentile(0.99)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res99.InitialObjective, a.Percentile(0.99); got != want {
		t.Errorf("ForObjective override not used: initial %v, want p99 %v", got, want)
	}
}

// Canceling a brute-force run on c880 mid-flight must return promptly
// with context.Canceled and the partial trace of whatever iterations
// committed — not run the remaining (expensive) iterations to the end.
func TestOptimizeCancellationReturnsPartialResult(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c880")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel as soon as the first iteration lands: the remaining 999
	// brute-force iterations would take minutes.
	canceledAt := make(chan struct{})
	var once sync.Once
	res, err := eng.Optimize(ctx, d, "brute-force",
		MaxIterations(1000),
		OnIteration(func(IterRecord) {
			once.Do(func() { cancel(); close(canceledAt) })
		}),
	)
	select {
	case <-canceledAt:
	default:
		t.Fatal("optimization finished without ever iterating")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	if res.Iterations < 1 || len(res.Records) != res.Iterations {
		t.Errorf("partial trace inconsistent: %d iterations, %d records", res.Iterations, len(res.Records))
	}
	if res.Iterations >= 1000 {
		t.Error("run completed despite cancellation")
	}
	if res.Design == nil {
		t.Fatal("partial result lost the design")
	}
	// The partial design state must match the partial trace.
	if res.Design.TotalWidth() != res.Records[len(res.Records)-1].TotalWidth {
		t.Error("partial design width disagrees with last committed record")
	}
	cancel()
}

// A context that is already dead must stop the run before any sizing.
func TestOptimizePreCanceledContext(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = eng.Optimize(ctx, d, "accelerated", MaxIterations(10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAnalysisCancellation(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c880")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.AnalyzeSSTA(ctx, d); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeSSTA err = %v, want context.Canceled", err)
	}
	mc, err := eng.MonteCarlo(ctx, d, 100000, 1)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("MonteCarlo err = %v, want context.Canceled", err)
	}
	if mc == nil {
		t.Error("MonteCarlo cancellation should still return the partial sample set")
	}
	if _, err := eng.Criticality(ctx, d, 100000, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("Criticality err = %v, want context.Canceled", err)
	}
}

// Two goroutines optimizing clones of one loaded design concurrently —
// the headline concurrency contract, meaningful under -race.
func TestConcurrentOptimizeOnSharedDesign(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Optimize(ctx, d, "accelerated", MaxIterations(5))
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
	}
	// Identical inputs, independent clones: both runs must agree.
	if results[0].FinalObjective != results[1].FinalObjective {
		t.Errorf("concurrent runs diverged: %v vs %v",
			results[0].FinalObjective, results[1].FinalObjective)
	}
	if results[0].Design == results[1].Design {
		t.Error("concurrent runs shared a design")
	}
	if d.TotalWidth() != float64(d.NL.NumGates())*d.Lib.WMin {
		t.Error("shared base design was mutated")
	}
}

// Concurrent mixed analysis traffic against one engine and one design.
func TestConcurrentAnalysisTraffic(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				if _, err := eng.AnalyzeSSTA(ctx, d); err != nil {
					t.Error(err)
				}
			case 1:
				if _, err := eng.MonteCarlo(ctx, d, 2000, int64(i)); err != nil {
					t.Error(err)
				}
			default:
				if _, err := eng.Benchmark("c432"); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestOptimizerRegistry(t *testing.T) {
	names := Optimizers()
	for _, want := range []string{"accelerated", "brute-force", "deterministic", "heuristic-levels", "multi-size"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin optimizer %q missing from registry (%v)", want, names)
		}
	}
}

func TestUnknownOptimizerError(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Optimize(context.Background(), d, "gradient-descent")
	var unknown *UnknownOptimizerError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want UnknownOptimizerError", err)
	}
	if unknown.Name != "gradient-descent" {
		t.Errorf("error names %q", unknown.Name)
	}
	if !strings.Contains(err.Error(), "accelerated") {
		t.Error("error message should list registered optimizers")
	}
}

// The optimizer set is fixed at five names, and each future-work
// variant is the accelerated optimizer with its knob at the default:
// it records, bit for bit, what accelerated records with that knob set.
func TestRegisteredVariants(t *testing.T) {
	want := []string{"accelerated", "brute-force", "deterministic", "heuristic-levels", "multi-size"}
	if got := Optimizers(); !slices.Equal(got, want) {
		t.Fatalf("Optimizers() = %v, want exactly %v", got, want)
	}
	eng := newEngine(t)
	d, err := eng.Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := WithConfig(Config{Bins: 400, MaxIterations: 10})
	for _, tc := range []struct {
		variant string
		knob    RunOption
	}{
		{"heuristic-levels", HeuristicLevels(4)},
		{"multi-size", MultiSize(3)},
	} {
		got, err := eng.Optimize(ctx, d, tc.variant, run)
		if err != nil {
			t.Fatalf("%s: %v", tc.variant, err)
		}
		ref, err := eng.Optimize(ctx, d, "accelerated", run, tc.knob)
		if err != nil {
			t.Fatalf("accelerated for %s: %v", tc.variant, err)
		}
		if g, r := formatTrace("c432", tc.variant, 400, got), formatTrace("c432", tc.variant, 400, ref); g != r {
			t.Errorf("%s trace differs from accelerated with its knob:\n%s\nwant\n%s", tc.variant, g, r)
		}
		if got.Iterations == 0 {
			t.Fatalf("%s made no progress", tc.variant)
		}
		if tc.variant == "multi-size" && len(got.Records[0].Gates) < 2 {
			t.Error("multi-size variant sized one gate per iteration")
		}
	}
}

func TestWithConfigOptimizersDoNotMutateCaller(t *testing.T) {
	// A whole Config handed over with WithConfig drives each of the
	// paper's three optimizers on a private clone of the caller's design.
	eng := newEngine(t)
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	before := d.TotalWidth()
	for _, opt := range []string{"deterministic", "brute-force", "accelerated"} {
		res, err := eng.Optimize(context.Background(), d, opt, WithConfig(Config{MaxIterations: 2}))
		if err != nil {
			t.Fatalf("%s: %v", opt, err)
		}
		if d.TotalWidth() != before {
			t.Fatalf("%s: Optimize mutated the caller's design", opt)
		}
		if res.Design == nil || res.Design == d {
			t.Fatalf("%s: Result.Design must be a private clone", opt)
		}
		if res.Design.TotalWidth() <= before {
			t.Errorf("%s: clone was not sized", opt)
		}
		if res.FinalWidth != res.Design.TotalWidth() {
			t.Errorf("%s: Result.FinalWidth disagrees with the sized clone", opt)
		}
	}
}

// Cancellation latency guard: a canceled long run must come back well
// under the time the full run would take.
func TestCancellationIsPrompt(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c880")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = eng.Optimize(ctx, d, "brute-force", MaxIterations(1000))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Generous bound: a c880 brute-force run is minutes; prompt
	// cancellation is within one candidate evaluation of the deadline.
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}
