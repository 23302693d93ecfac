package validate

import (
	"context"
	"errors"
	"flag"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/montecarlo"
	"statsize/internal/netlist"
)

// corpusN overrides the corpus size: `go test ./internal/validate
// -corpus.n 200` is the nightly-style large sweep. 0 means the default
// for the mode (25 in -short, 40 otherwise).
var corpusN = flag.Int("corpus.n", 0, "validation corpus size (0 = mode default)")

func testOptions(t *testing.T) Options {
	opts := DefaultOptions()
	if !testing.Short() {
		opts.Corpus.N = 40
	}
	if *corpusN > 0 {
		opts.Corpus.N = *corpusN
	}
	opts.Log = func(format string, args ...any) { t.Logf(format, args...) }
	return opts
}

// TestCorpus is the statistical correctness oracle: every corpus
// circuit's SSTA sink CDF must stay within the DKW-derived tolerances
// of a 20k-sample Monte Carlo reference, and every metamorphic property
// must hold. Failures print minimized, self-contained reproducer specs.
func TestCorpus(t *testing.T) {
	lib := cell.Default180nm()
	opts := testOptions(t)
	if *corpusN == 0 && opts.Corpus.N < 25 {
		t.Fatalf("default corpus size %d below the 25-circuit floor", opts.Corpus.N)
	}
	sum, err := Run(context.Background(), lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := opts.Corpus.N + len(opts.ISCAS); len(sum.Outcomes) != want {
		t.Fatalf("corpus covered %d circuits, want %d", len(sum.Outcomes), want)
	}
	if !sum.Ok() {
		t.Fatalf("validation failures:\n%s", sum.Report())
	}
}

// TestOracleWideGrid runs the DKW oracle on a grid far wider than the
// default budget: c17 at 8192 bins convolves supports of about 1200
// bins. The DKW bounds against Monte Carlo must hold there as they do
// on the benchmark grids.
func TestOracleWideGrid(t *testing.T) {
	lib := cell.Default180nm()
	ctx := context.Background()
	cfg := DefaultOracleConfig()
	cfg.Bins = 8192
	d, err := design.New(netlist.C17(lib), lib)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunOracleOn(ctx, d, "c17", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("oracle fails at %d bins: %s", cfg.Bins, rep)
	}
}

// TestCorpusDeterministic: the corpus is a pure function of its
// options — reruns must yield identical spec sequences, or reproducers
// would not reproduce.
func TestCorpusDeterministic(t *testing.T) {
	lib := cell.Default180nm()
	opt := DefaultCorpusOptions()
	a, err := Corpus(lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Corpus(lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs across runs:\n%#v\n%#v", i, a[i], b[i])
		}
	}
}

// TestCorpusCoversFamilies: every shape family contributes, and every
// spec is valid and generable by construction.
func TestCorpusCoversFamilies(t *testing.T) {
	lib := cell.Default180nm()
	specs, err := Corpus(lib, DefaultCorpusOptions())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, sp := range specs {
		if err := sp.Validate(lib); err != nil {
			t.Errorf("invalid corpus spec %#v: %v", sp, err)
		}
		for _, f := range []string{"mix", "deep", "wide", "reconv", "taper"} {
			if len(sp.Name) > len(f) && sp.Name[:len(f)] == f {
				seen[f]++
			}
		}
	}
	for _, f := range []string{"mix", "deep", "wide", "reconv", "taper"} {
		if seen[f] == 0 {
			t.Errorf("family %s absent from the corpus", f)
		}
	}
}

// TestDKWEpsilon pins the band arithmetic: at n=20000, alpha=0.001 the
// half-width is sqrt(ln(2000)/40000).
func TestDKWEpsilon(t *testing.T) {
	got := DKWEpsilon(20000, 0.001)
	want := math.Sqrt(math.Log(2000.0) / 40000.0)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("DKWEpsilon = %v, want %v", got, want)
	}
	if n4 := DKWEpsilon(4*20000, 0.001); math.Abs(n4-want/2) > 1e-15 {
		t.Errorf("quadrupling samples should halve the band: %v vs %v", n4, want/2)
	}
}

// TestOracleFlagsOptimism is the negative control: an SSTA distribution
// artificially shifted *earlier* than the samples it is compared against
// must be convicted as unsound, and one shifted *later* as loose — the
// oracle cannot pass everything.
func TestOracleFlagsOptimism(t *testing.T) {
	cfg := DefaultOracleConfig()
	cfg.Samples = 4000
	const dt = 0.01
	mkSink := func(mean float64) *dist.Dist {
		d, err := dist.TruncGauss(dt, mean, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Samples from the same truncated Gaussian the sink claims.
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, cfg.Samples)
	for i := range samples {
		z := rng.NormFloat64()
		for z < -3 || z > 3 {
			z = rng.NormFloat64()
		}
		samples[i] = 10.0 + 0.05*z
	}
	mc := &montecarlo.Result{Delays: samples}
	sort.Float64s(mc.Delays)

	if rep := CompareCDFs(mkSink(10.0), mc, cfg); !rep.Pass {
		t.Errorf("matched distributions should pass, got: %s", rep.Failure)
	}
	if rep := CompareCDFs(mkSink(9.8), mc, cfg); rep.Pass || rep.MaxOptimistic <= rep.OptimisticLimit {
		t.Errorf("optimistic sink not convicted: %+v", rep)
	}
	if rep := CompareCDFs(mkSink(11.0), mc, cfg); rep.Pass {
		t.Error("grossly conservative sink not convicted")
	}
}

// TestShrinkMinimizes: the shrinker must walk a failing spec down to a
// materially smaller one while preserving the failure predicate.
func TestShrinkMinimizes(t *testing.T) {
	lib := cell.Default180nm()
	specs, err := Corpus(lib, CorpusOptions{N: 3, Seed: 99, MaxGates: 120})
	if err != nil {
		t.Fatal(err)
	}
	sp := specs[0]
	for _, cand := range specs {
		if cand.Gates() > sp.Gates() {
			sp = cand
		}
	}
	fails := func(c circuitgen.Spec) bool { return c.Gates() >= 10 }
	if !fails(sp) {
		t.Skipf("largest corpus spec has only %d gates", sp.Gates())
	}
	min := Shrink(lib, sp, fails, 200)
	if !fails(min) {
		t.Fatalf("shrinker returned a non-failing spec: %#v", min)
	}
	if min.Gates() >= sp.Gates() {
		t.Fatalf("shrinker made no progress: %d -> %d gates", sp.Gates(), min.Gates())
	}
	if min.Gates() > 20 {
		t.Errorf("shrinker stalled at %d gates (predicate is satisfiable at 10)", min.Gates())
	}
	if err := min.Validate(lib); err != nil {
		t.Fatalf("minimized spec invalid: %v", err)
	}
	if _, err := circuitgen.Generate(lib, min); err != nil {
		t.Fatalf("minimized spec not generable: %v", err)
	}
}

// TestFailureReproducerRoundTrips: the reproducer literal embedded in a
// failure report parses back into the identical spec.
func TestFailureReproducerRoundTrips(t *testing.T) {
	sp := circuitgen.Spec{Name: "repro-1", Nodes: 40, Edges: 77, PIs: 6, POs: 3, Depth: 9, Seed: 123456789}
	f := &Failure{Circuit: "repro-1", Kind: "oracle", Detail: "example", Minimal: sp, Original: sp}
	text := f.String()
	const marker = "reproducer: "
	i := strings.Index(text, marker)
	if i < 0 {
		t.Fatalf("failure report lacks a reproducer: %q", text)
	}
	got, err := circuitgen.ParseSpec(text[i+len(marker):])
	if err != nil {
		t.Fatal(err)
	}
	if got != sp {
		t.Fatalf("round trip changed the spec:\n%#v\n%#v", got, sp)
	}
}

// TestMetamorphicSuiteOnOneSpec exercises every property against a
// single mid-sized spec directly (TestCorpus covers the full sweep):
// a cheap always-on guard that the properties themselves stay runnable.
func TestMetamorphicSuiteOnOneSpec(t *testing.T) {
	lib := cell.Default180nm()
	specs, err := Corpus(lib, CorpusOptions{N: 1, Seed: 5, MaxGates: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, prop := range Properties() {
		t.Run(prop.Name, func(t *testing.T) {
			if err := prop.Run(context.Background(), lib, specs[0]); err != nil {
				t.Fatalf("property failed on %#v: %v", specs[0], err)
			}
		})
	}
}

// TestRunReportsMinimizedFailures drives the failure path end to end:
// under a draconian tightness tolerance real circuits must fail, each
// failure must carry a shrunk reproducer that (a) still fails the same
// check and (b) appears in the report as a parseable Spec literal.
func TestRunReportsMinimizedFailures(t *testing.T) {
	lib := cell.Default180nm()
	opts := DefaultOptions()
	opts.Corpus.N = 5
	opts.ISCAS = nil
	opts.ShrinkBudget = 8
	opts.Oracle.Samples = 4000
	opts.Oracle.QuantileTol = 1e-9 // every reconvergent circuit is "too loose" now
	opts.Oracle.SlopBins = 0
	sum, err := Run(context.Background(), lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ok() {
		t.Fatal("draconian tolerance produced no failures; negative path untested")
	}
	for _, f := range sum.Failures {
		if f.Kind != "oracle" {
			t.Errorf("unexpected non-oracle failure: %s", f)
			continue
		}
		rep, err := RunOracle(context.Background(), lib, f.Minimal, opts.Oracle)
		if err != nil {
			t.Fatalf("minimized reproducer %#v does not run: %v", f.Minimal, err)
		}
		if rep.Pass {
			t.Errorf("minimized reproducer %#v no longer fails", f.Minimal)
		}
		if f.Minimal.Gates() > f.Original.Gates() {
			t.Errorf("shrinker grew the spec: %d -> %d gates", f.Original.Gates(), f.Minimal.Gates())
		}
	}
	report := sum.Report()
	const marker = "reproducer: "
	i := strings.Index(report, marker)
	if i < 0 {
		t.Fatalf("report lacks reproducer literals:\n%s", report)
	}
	rest := report[i+len(marker):]
	if j := strings.Index(rest, "\n"); j >= 0 {
		rest = rest[:j]
	}
	if _, err := circuitgen.ParseSpec(rest); err != nil {
		t.Fatalf("report reproducer does not parse: %v", err)
	}
}

// TestRunCanceled: a canceled context aborts the sweep with a wrapped
// context error rather than fabricating a clean summary.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Corpus.N = 2
	_, err := Run(ctx, cell.Default180nm(), opts)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
}

// TestWidenNeverSlowerHonorsCancellation: regression for the unchecked
// per-gate delay-evaluation loop ctxflow flagged in
// propWidenNeverSlower — a dead context must abort the property with
// context.Canceled instead of running the remaining sweep.
func TestWidenNeverSlowerHonorsCancellation(t *testing.T) {
	lib := cell.Default180nm()
	specs, err := Corpus(lib, CorpusOptions{N: 1, Seed: 5, MaxGates: 60})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := propWidenNeverSlower(ctx, lib, specs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled property returned %v, want context.Canceled", err)
	}
}
