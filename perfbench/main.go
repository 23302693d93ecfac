// Command perfbench is the repository's benchmark. It runs one named
// workload against the statsize library from a seed, checks that the
// program's outputs are correct, and prints every end-to-end metric by
// name with its unit; a traced run prints the per-layer metrics instead
// and writes its spans out. See README.md for the workloads and the
// metric definitions.
//
//	go run . --workload optimize --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median, and the last set-up state is the one measured.
const setupReps = 3

// runBudget bounds a whole run, so a wedged workload fails instead of
// hanging past the harness limit.
const runBudget = 170 * time.Second

// workload is one benchmark workload. Its methods run in order: setup,
// run, check, then probe on the state run left (traced runs only), and
// close.
type workload interface {
	// setup builds the seeded inputs and opens the state the timed ops
	// run on: everything before the first timed op.
	setup(ctx context.Context, tr *tracer) error
	// run issues timed ops until the deadline, reporting them to rec.
	run(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer) error
	// check verifies the outputs of setup and run; an error fails the run.
	check(ctx context.Context) error
	// probe times each layer's public entry points on the live state.
	probe(ctx context.Context, tr *tracer) error
	// gainPct is the run's p99_gain_pct.
	gainPct() float64
	// cacheHitRatio is the delay memo hit ratio of the base designs.
	cacheHitRatio() float64
	// facts describes the inputs for the report.
	facts() map[string]any
	close()
}

var workloads = map[string]func(seed, circuits int64) workload{
	"optimize": newOptimize,
	"explore":  newExplore,
	"serve":    newServe,
}

type options struct {
	workload string
	seed     int64
	circuits int64
	seconds  int
	trace    bool
	traceOut string
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: optimize, explore or serve")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Int64Var(&o.circuits, "circuit-offset", 0, "added to every suite circuit's seed, to measure on other replicas")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and prints per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/perfbench-trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want optimize, explore or serve)", o.workload)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("perfbench-trace-%s-%d.json", o.workload, o.seed))
	}
	return o, nil
}

// phase is how long one measured phase runs: the whole budget, or half
// of it in a traced run, which measures an untraced and a traced phase.
func (o options) phase() time.Duration {
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		d /= 2
	}
	return d
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host names the machine every number was taken on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func hostStamp() host {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpu,
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// report is printed before the result line: the host stamp and the
// facts behind the numbers (tail percentile used, sample count, inputs).
type report struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Seconds        int            `json:"seconds"`
	Traced         bool           `json:"traced"`
	Host           host           `json:"host"`
	SetupS         []float64      `json:"setup_s_reps"`
	ElapsedS       float64        `json:"measured_s"`
	Samples        int            `json:"latency_samples"`
	TailPercentile int            `json:"tail_percentile"`
	TailSampled    bool           `json:"tail_has_10_beyond"`
	Facts          map[string]any `json:"inputs"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	res, rep, err := execute(ctx, o)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(struct {
		Report report `json:"report"`
	}{rep})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
}

// errCheck marks an output check failure.
var errCheck = errors.New("output check failed")

// execute runs one workload: set-up (several times, untraced), the
// measured ops, the output checks, and for a traced run a second traced
// pass plus the per-layer probes.
func execute(ctx context.Context, o options) (*result, report, error) {
	newW := func() workload { return workloads[o.workload](o.seed, o.circuits) }
	rep := report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Host: hostStamp()}

	w, setups, err := setUp(ctx, newW, nil)
	if err != nil {
		return nil, rep, err
	}
	rec := newRecorder()
	err = w.run(ctx, rec.start.Add(o.phase()), rec, nil)
	if err != nil {
		w.close()
		return nil, rep, fmt.Errorf("%s run: %w", o.workload, err)
	}
	sum := rec.summary()
	if err := w.check(ctx); err != nil {
		w.close()
		return nil, rep, fmt.Errorf("%w: %s: %v", errCheck, o.workload, err)
	}
	rep.SetupS = setups
	rep.ElapsedS = sum.Elapsed.Seconds()
	rep.Samples = sum.Samples
	rep.TailPercentile = sum.TailPct
	rep.TailSampled = sum.TailOK
	rep.Facts = w.facts()
	res := &result{Correct: true, Attempted: sum.Ops, Failed: sum.Failed}
	if sum.Ops == 0 {
		w.close()
		return nil, rep, fmt.Errorf("%s: no op completed in %ds", o.workload, o.seconds)
	}
	if !o.trace {
		res.Metrics = endToEnd(sum, setups, w.gainPct())
		w.close()
		return res, rep, nil
	}
	w.close()

	metrics, err := traced(ctx, o, newW, sum, &rep)
	if err != nil {
		return nil, rep, err
	}
	res.Metrics = metrics
	return res, rep, nil
}

// setUp builds the workload; untraced runs do it setupReps times and
// keep the last, traced runs once.
func setUp(ctx context.Context, newW func() workload, tr *tracer) (workload, []float64, error) {
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	var w workload
	var times []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		if i == 0 && tr == nil {
			start = processStart
		}
		w = newW()
		if err := w.setup(ctx, tr); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, times, nil
}

func endToEnd(sum summary, setups []float64, gain float64) map[string]metric {
	ok := sum.Ops - sum.Failed
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {float64(ok) / sum.Elapsed.Seconds(), "1/s"},
		"latency_ms_p50":  {sum.P50, "ms"},
		"latency_ms_tail": {sum.Tail, "ms"},
		"success_pct":     {100 * float64(ok) / float64(sum.Ops), "%"},
		"p99_gain_pct":    {gain, "%"},
		"alloc_kb_per_op": {float64(sum.AllocBytes) / 1024 / float64(sum.Samples), "KiB"},
	}
}

// traced repeats the run with spans on, probes every layer on the live
// state, writes the spans out and returns the per-layer metrics.
func traced(ctx context.Context, o options, newW func() workload, untraced summary, rep *report) (map[string]metric, error) {
	tr := newTracer()
	w, _, err := setUp(ctx, newW, tr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	watch := watchHeap()
	rec := newRecorder()
	err = w.run(ctx, rec.start.Add(o.phase()), rec, tr)
	peak, pauseNs := watch.finish()
	if err != nil {
		return nil, fmt.Errorf("%s traced run: %w", o.workload, err)
	}
	sum := rec.summary()
	if err := w.check(ctx); err != nil {
		return nil, fmt.Errorf("%w: %s traced: %v", errCheck, o.workload, err)
	}
	if err := w.probe(ctx, tr); err != nil {
		return nil, fmt.Errorf("%s probes: %w", o.workload, err)
	}
	spans := tr.snapshot()
	m := perLayer(spans)
	rate := func(s summary) float64 { return float64(s.Ops-s.Failed) / s.Elapsed.Seconds() }
	m["trace.overhead_pct"] = metric{100 * (rate(untraced) - rate(sum)) / rate(untraced), "%"}
	m["loadgen.late_ms_p99"] = metric{sum.LateP99, "ms"}
	m["runtime.gc_pause_ms"] = metric{float64(pauseNs) / 1e6, "ms"}
	m["runtime.heap_peak_mb"] = metric{float64(peak) / (1 << 20), "MiB"}
	m["design.delay_cache_hit_ratio"] = metric{w.cacheHitRatio(), "ratio"}

	names, layers := aggregate(spans)
	tf := &traceFile{Host: rep.Host, Report: *rep, Metrics: m, Names: names, Layers: layers, Spans: spans}
	if err := writeTrace(o.traceOut, tf); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return m, nil
}
