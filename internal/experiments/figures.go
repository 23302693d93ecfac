package experiments

import (
	"context"
	"fmt"

	"statsize/internal/core"
	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/montecarlo"
	"statsize/internal/ssta"
	"statsize/internal/sta"
)

// CurvePoint is one sample of an area-delay trajectory (Figure 10).
type CurvePoint struct {
	Iter     int
	Area     float64 // total gate size
	P99Bound float64 // 99-percentile via the SSTA bound (ns)
	P99MC    float64 // 99-percentile via Monte Carlo (ns)
}

// Figure10Result carries both optimizers' area-delay curves for one
// circuit (the paper plots c3540).
type Figure10Result struct {
	Circuit       string
	Deterministic []CurvePoint
	Statistical   []CurvePoint
}

// Figure10 traces total gate size versus 99-percentile delay for the
// deterministic and statistical optimizers, evaluating each recorded
// point with both the SSTA bound and Monte Carlo — the two nearly
// coincident markers of the paper's Figure 10.
func Figure10(ctx context.Context, circuit string, opts Options) (*Figure10Result, error) {
	opts = opts.withDefaults()
	stride := opts.Iterations / opts.TracePoints
	if stride < 1 {
		stride = 1
	}
	res := &Figure10Result{Circuit: circuit}

	dDet, err := buildDesign(circuit, opts.Seed)
	if err != nil {
		return nil, err
	}
	opts.progress("figure10: %s deterministic", circuit)
	detPoints, err := traceRun(ctx, dDet, opts, stride, func(cfg core.Config) (*core.Result, error) {
		return runOnSession(ctx, dDet, cfg, core.Deterministic)
	})
	if err != nil {
		return nil, err
	}
	res.Deterministic = detPoints

	dStat, err := buildDesign(circuit, opts.Seed)
	if err != nil {
		return nil, err
	}
	opts.progress("figure10: %s statistical", circuit)
	statPoints, err := traceRun(ctx, dStat, opts, stride, func(cfg core.Config) (*core.Result, error) {
		return runOnSession(ctx, dStat, cfg, core.Accelerated)
	})
	if err != nil {
		return nil, err
	}
	res.Statistical = statPoints
	return res, nil
}

// traceRun runs one optimizer while sampling (area, p99-bound, p99-MC)
// every `stride` iterations, including the initial and final designs.
func traceRun(
	ctx context.Context,
	d *design.Design,
	opts Options,
	stride int,
	run func(core.Config) (*core.Result, error),
) ([]CurvePoint, error) {
	var points []CurvePoint
	var traceErr error
	sample := func(iter int) {
		if traceErr != nil {
			return
		}
		p99, err := percentileOf(ctx, d, opts)
		if err != nil {
			traceErr = err
			return
		}
		mc, err := montecarlo.Run(ctx, d, opts.MCSamples, opts.Seed+int64(iter)+7)
		if err != nil {
			traceErr = err
			return
		}
		points = append(points, CurvePoint{
			Iter:     iter,
			Area:     d.TotalWidth(),
			P99Bound: p99,
			P99MC:    mc.Percentile(objectiveP),
		})
	}
	sample(0)
	last := 0
	cfg := core.Config{
		MaxIterations: opts.Iterations,
		Bins:          opts.Bins,
		Objective:     core.Percentile(objectiveP),
		OnIteration: func(r core.IterRecord) {
			if (r.Iter+1)%stride == 0 {
				sample(r.Iter + 1)
				last = r.Iter + 1
			}
		},
	}
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	if traceErr != nil {
		return nil, traceErr
	}
	if res.Iterations != last {
		sample(res.Iterations)
	}
	return points, nil
}

// Figure1Result carries the path-delay histograms and circuit-delay PDFs
// after deterministic and statistical optimization of one circuit — the
// "wall of critical paths" contrast of Figure 1.
type Figure1Result struct {
	Circuit string
	// Path-count histograms over nominal path delay.
	DetHist, StatHist *sta.Histogram
	// Circuit-delay distributions (SSTA sink PDFs).
	DetSink, StatSink *dist.Dist
	// Near-critical population: paths within 10% of the nominal maximum.
	DetWall, StatWall float64
	DetIters          int
	StatIters         int
}

// Figure1 optimizes a circuit both ways for the same added area and
// reports the resulting path-delay profiles: deterministic optimization
// piles paths against the critical delay (the "wall", Figure 1a) while
// the statistical optimizer keeps the profile unbalanced, which is what
// improves the statistical circuit delay (Figure 1b).
func Figure1(ctx context.Context, circuit string, opts Options) (*Figure1Result, error) {
	opts = opts.withDefaults()
	opts.progress("figure1: %s", circuit)
	run, err := equalArea(ctx, circuit, opts)
	if err != nil {
		return nil, err
	}
	dDet, dStat := run.det, run.stat
	res := &Figure1Result{Circuit: circuit, DetIters: run.detRes.Iterations, StatIters: run.statRes.Iterations}

	detDelay := dDet.NominalDelay()
	res.DetHist = sta.PathHistogram(dDet, detDelay/120)
	res.StatHist = sta.PathHistogram(dStat, detDelay/120)
	res.DetWall = res.DetHist.CountAtLeast(0.9 * detDelay)
	res.StatWall = res.StatHist.CountAtLeast(0.9 * detDelay)

	aDet, err := ssta.Analyze(ctx, dDet, dDet.SuggestDT(opts.Bins))
	if err != nil {
		return nil, err
	}
	aStat, err := ssta.Analyze(ctx, dStat, dStat.SuggestDT(opts.Bins))
	if err != nil {
		return nil, err
	}
	res.DetSink = aDet.SinkDist()
	res.StatSink = aStat.SinkDist()
	return res, nil
}

// Figure2Result is the CDF perturbation of one sizing step.
type Figure2Result struct {
	Circuit     string
	Gate        int
	Unperturbed *dist.Dist
	Perturbed   *dist.Dist
	P99Before   float64
	P99After    float64
}

// Figure2 reproduces the illustration of the optimization objective: one
// accelerated sizing step is taken and the sink CDF before and after is
// returned, together with the change in the 99-percentile point.
func Figure2(ctx context.Context, circuit string, opts Options) (*Figure2Result, error) {
	opts = opts.withDefaults()
	d, err := buildDesign(circuit, opts.Seed)
	if err != nil {
		return nil, err
	}
	a, err := ssta.Analyze(ctx, d, d.SuggestDT(opts.Bins))
	if err != nil {
		return nil, err
	}
	before := a.SinkDist()
	p99Before := before.Percentile(objectiveP)
	res, err := runOnSession(ctx, d, core.Config{
		MaxIterations: 1,
		Bins:          opts.Bins,
		Objective:     core.Percentile(objectiveP),
	}, core.Accelerated)
	if err != nil {
		return nil, err
	}
	if res.Iterations == 0 {
		return nil, fmt.Errorf("experiments: %s had no positive-sensitivity gate", circuit)
	}
	a2, err := ssta.Analyze(ctx, d, a.DT)
	if err != nil {
		return nil, err
	}
	return &Figure2Result{
		Circuit:     circuit,
		Gate:        int(res.Records[0].Gates[0]),
		Unperturbed: before,
		Perturbed:   a2.SinkDist(),
		P99Before:   p99Before,
		P99After:    a2.Percentile(objectiveP),
	}, nil
}

// BoundsRow compares the SSTA bound with Monte Carlo on one min-sized
// circuit — the Section 4 accuracy claim.
type BoundsRow struct {
	Circuit   string
	P50Bound  float64
	P50MC     float64
	P99Bound  float64
	P99MC     float64
	P99ErrPct float64
}

// BoundsVsMC quantifies the tightness of the arrival-time bound on every
// requested circuit at minimum size.
func BoundsVsMC(ctx context.Context, opts Options) ([]BoundsRow, error) {
	opts = opts.withDefaults()
	var rows []BoundsRow
	for _, name := range opts.Circuits {
		opts.progress("bounds: %s", name)
		d, err := buildDesign(name, opts.Seed)
		if err != nil {
			return nil, err
		}
		a, err := ssta.Analyze(ctx, d, d.SuggestDT(opts.Bins))
		if err != nil {
			return nil, err
		}
		mc, err := montecarlo.Run(ctx, d, opts.MCSamples, opts.Seed+13)
		if err != nil {
			return nil, err
		}
		row := BoundsRow{
			Circuit:  name,
			P50Bound: a.Percentile(0.5),
			P50MC:    mc.Percentile(0.5),
			P99Bound: a.Percentile(0.99),
			P99MC:    mc.Percentile(0.99),
		}
		row.P99ErrPct = 100 * (row.P99Bound - row.P99MC) / row.P99MC
		rows = append(rows, row)
	}
	return rows, nil
}
