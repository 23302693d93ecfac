// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4): Table 1 (deterministic vs statistical
// optimization of the 99-percentile delay), Table 2 (brute-force vs
// accelerated runtimes and pruning effectiveness), Figure 1 (path-delay
// walls), Figure 2 (CDF perturbation from one sizing step), Figure 10
// (area-delay curves with Monte Carlo validation), and the Section 4
// bounds-accuracy claim (SSTA bound within ~1% of Monte Carlo at the
// 99th percentile).
//
// Every experiment is deterministic in Options.Seed and scales with the
// iteration/sample knobs so the full paper protocol and a quick CI run
// share one code path (see EXPERIMENTS.md for the recorded settings).
package experiments

import (
	"context"
	"fmt"
	"time"

	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/core"
	"statsize/internal/design"
	"statsize/internal/netlist"
	"statsize/internal/session"
	"statsize/internal/ssta"
)

// Options scales an experiment run. The zero value selects quick
// defaults; Full() selects the paper's protocol.
type Options struct {
	// Circuits to run; nil means the full ISCAS'85 suite of Table 1.
	Circuits []string
	// Iterations caps the sizing iterations of Table 1, Figure 1 and
	// Figure 10 runs (paper: >1000). Default 120.
	Iterations int
	// TimedIterations is how many trajectory-matched iterations Table 2
	// times for both optimizers. Default 3 (brute force is expensive by
	// design).
	TimedIterations int
	// Bins is the SSTA grid resolution. Default 600.
	Bins int
	// MCSamples for Monte Carlo validation. Default 4000.
	MCSamples int
	// TracePoints is how many (area, delay) points Figure 10 records per
	// curve. Default 25.
	TracePoints int
	// Seed drives circuit generation and Monte Carlo.
	Seed int64
	// Progress, when non-nil, receives one line per major step.
	Progress func(string)
}

func (o Options) withDefaults() Options {
	if len(o.Circuits) == 0 {
		o.Circuits = circuitgen.Names()
	}
	if o.Iterations <= 0 {
		o.Iterations = 120
	}
	if o.TimedIterations <= 0 {
		o.TimedIterations = 3
	}
	if o.Bins <= 0 {
		o.Bins = 600
	}
	if o.MCSamples <= 0 {
		o.MCSamples = 4000
	}
	if o.TracePoints <= 0 {
		o.TracePoints = 25
	}
	return o
}

// objectiveP is the delay percentile every experiment optimizes and
// reports: the paper's 99-percentile point.
const objectiveP = 0.99

// Full returns the paper-scale protocol: all circuits, 1000+ sizing
// iterations, 10000 Monte Carlo samples.
func Full() Options {
	return Options{Iterations: 1000, TimedIterations: 5, MCSamples: 10000, TracePoints: 40}
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// buildDesign constructs a minimum-sized design for a named benchmark
// ("c17" is the embedded real netlist; the rest are Table 1 replicas).
func buildDesign(name string, seed int64) (*design.Design, error) {
	lib := cell.Default180nm()
	var nl *netlist.Netlist
	if name == "c17" {
		nl = netlist.C17(lib)
	} else {
		sp, ok := circuitgen.ByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown circuit %q", name)
		}
		sp.Seed += seed
		var err error
		nl, err = circuitgen.Generate(lib, sp)
		if err != nil {
			return nil, err
		}
	}
	return design.New(nl, lib)
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Circuit      string
	Nodes, Edges int
	AreaIncPct   float64 // "% inc": total gate size increase
	Det99        float64 // 99-percentile delay after deterministic opt (ns)
	Stat99       float64 // after statistical opt (ns)
	ImprPct      float64 // improvement of statistical over deterministic
	DetIters     int
	StatIters    int
}

// Table1 reproduces the paper's Table 1 from one equal-area run per
// circuit. The reported 99-percentile delays come from a fresh SSTA
// pass over each optimized design.
func Table1(ctx context.Context, opts Options) ([]Table1Row, error) {
	opts = opts.withDefaults()
	var rows []Table1Row
	for _, name := range opts.Circuits {
		opts.progress("table1: %s", name)
		run, err := equalArea(ctx, name, opts)
		if err != nil {
			return nil, err
		}
		det99, err := percentileOf(ctx, run.det, opts)
		if err != nil {
			return nil, err
		}
		stat99, err := percentileOf(ctx, run.stat, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Circuit:    name,
			Nodes:      run.det.NL.TimingNodeCount(),
			Edges:      run.det.NL.TimingEdgeCount(),
			AreaIncPct: run.statRes.AreaIncrease(),
			Det99:      det99,
			Stat99:     stat99,
			ImprPct:    100 * (det99 - stat99) / det99,
			DetIters:   run.detRes.Iterations,
			StatIters:  run.statRes.Iterations,
		})
	}
	return rows, nil
}

// equalAreaRun is one circuit sized both ways for the same added area.
type equalAreaRun struct {
	det, stat       *design.Design
	detRes, statRes *core.Result
}

// equalArea starts both optimizers from the minimum-sized circuit: the
// deterministic baseline runs until convergence or the iteration cap,
// and the statistical optimizer runs the same number of iterations
// (both size one gate by Δw per iteration, so equal iterations means
// equal added area). Table 1 and Figure 1 report this one run.
func equalArea(ctx context.Context, name string, opts Options) (*equalAreaRun, error) {
	det, err := buildDesign(name, opts.Seed)
	if err != nil {
		return nil, err
	}
	stat, err := buildDesign(name, opts.Seed)
	if err != nil {
		return nil, err
	}
	detRes, err := runOnSession(ctx, det, core.Config{MaxIterations: opts.Iterations, Bins: opts.Bins}, core.Deterministic)
	if err != nil {
		return nil, err
	}
	iters := detRes.Iterations
	if iters == 0 {
		iters = opts.Iterations
	}
	statRes, err := runOnSession(ctx, stat, core.Config{
		MaxIterations: iters,
		Bins:          opts.Bins,
		Objective:     core.Percentile(objectiveP),
	}, core.Accelerated)
	if err != nil {
		return nil, err
	}
	return &equalAreaRun{det: det, stat: stat, detRes: detRes, statRes: statRes}, nil
}

// runOnSession opens an incremental timing session over d under cfg,
// runs the optimizer against it, and closes the session — the harness's
// bridge onto the session-driving optimizer signatures. The optimizer
// sizes d itself (the session owns it directly, no clone), matching the
// pre-session harness semantics.
func runOnSession(
	ctx context.Context,
	d *design.Design,
	cfg core.Config,
	opt func(context.Context, *session.Session, core.Config) (*core.Result, error),
) (*core.Result, error) {
	s, err := core.OpenSession(ctx, d, cfg, nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return opt(ctx, s, cfg)
}

// percentileOf runs a fresh SSTA pass on a design and evaluates the
// objective percentile.
func percentileOf(ctx context.Context, d *design.Design, opts Options) (float64, error) {
	a, err := ssta.Analyze(ctx, d, d.SuggestDT(opts.Bins))
	if err != nil {
		return 0, err
	}
	return a.Percentile(objectiveP), nil
}

// Table2Row is one line of the paper's Table 2.
type Table2Row struct {
	Circuit    string
	BruteAvg   time.Duration // average time per brute-force iteration
	AccelAvg   time.Duration // average time per accelerated iteration
	Factor     float64       // BruteAvg / AccelAvg
	AccelMin   time.Duration // range of accelerated per-iteration time
	AccelMax   time.Duration
	FactorMin  float64 // range of improvement factor
	FactorMax  float64
	PrunedPct  float64 // candidates pruned before reaching the sink
	Iterations int
}

// Table2 reproduces the runtime comparison: both statistical optimizers
// run the same trajectory (they are exact, so they size the same gates),
// and per-iteration wall times are compared. The improvement-factor
// range pairs the brute-force average with the fastest and slowest
// accelerated iterations, mirroring the paper's columns 5-6.
func Table2(ctx context.Context, opts Options) ([]Table2Row, error) {
	opts = opts.withDefaults()
	var rows []Table2Row
	for _, name := range opts.Circuits {
		opts.progress("table2: %s (brute force)", name)
		dB, err := buildDesign(name, opts.Seed)
		if err != nil {
			return nil, err
		}
		cfg := core.Config{MaxIterations: opts.TimedIterations, Bins: opts.Bins}
		bruteRes, err := runOnSession(ctx, dB, cfg, core.BruteForce)
		if err != nil {
			return nil, err
		}
		opts.progress("table2: %s (accelerated)", name)
		dA, err := buildDesign(name, opts.Seed)
		if err != nil {
			return nil, err
		}
		accelRes, err := runOnSession(ctx, dA, cfg, core.Accelerated)
		if err != nil {
			return nil, err
		}
		row := Table2Row{Circuit: name, Iterations: bruteRes.Iterations}
		var bruteSum, accelSum time.Duration
		for _, r := range bruteRes.Records {
			bruteSum += r.Elapsed
		}
		var pruned, considered int
		row.AccelMin = time.Duration(1<<63 - 1)
		for _, r := range accelRes.Records {
			accelSum += r.Elapsed
			if r.Elapsed < row.AccelMin {
				row.AccelMin = r.Elapsed
			}
			if r.Elapsed > row.AccelMax {
				row.AccelMax = r.Elapsed
			}
			pruned += r.CandidatesPruned
			considered += r.CandidatesConsidered
		}
		nb, na := len(bruteRes.Records), len(accelRes.Records)
		if nb == 0 || na == 0 {
			return nil, fmt.Errorf("experiments: %s converged before timing (brute %d, accel %d iterations)", name, nb, na)
		}
		row.BruteAvg = bruteSum / time.Duration(nb)
		row.AccelAvg = accelSum / time.Duration(na)
		row.Factor = float64(row.BruteAvg) / float64(row.AccelAvg)
		row.FactorMin = float64(row.BruteAvg) / float64(row.AccelMax)
		row.FactorMax = float64(row.BruteAvg) / float64(row.AccelMin)
		if considered > 0 {
			row.PrunedPct = 100 * float64(pruned) / float64(considered)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
