// Package montecarlo estimates the exact circuit-delay distribution by
// sampling: every pin-to-pin delay is drawn independently from its
// continuous truncated Gaussian (the paper's intra-die model) and a
// deterministic longest-path pass evaluates each sample.
//
// Unlike the SSTA engine — which ignores reconvergent-fanout correlation
// and therefore computes a conservative upper bound on the delay CDF —
// Monte Carlo evaluates every sample on one consistent set of edge
// delays, capturing those correlations exactly (up to sampling noise).
// The paper uses this comparison in Figure 10 and reports <1% difference
// at the 99th percentile.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"statsize/internal/cell"
	"statsize/internal/design"
	"statsize/internal/graph"
)

// cancelCheckStride is how many samples pass between context checks.
const cancelCheckStride = 64

// Result holds the sorted sample delays of one run.
type Result struct {
	Delays []float64 // ascending
}

// drawFunc fills delay with one sample of every edge's delay, drawing
// from rng around the edges' nominal delays. Source and sink arcs, whose
// nominal delay is 0, keep delay 0.
type drawFunc func(rng *rand.Rand, nominal, delay []float64)

// sample is the one Monte Carlo loop behind Run, RunCorrelated and
// Criticality. It seeds one RNG and, for each of samples samples in
// turn, draws the edge delays with draw, runs the longest-path pass over
// them and hands its arrivals and winning fan-in edges to record. The
// pass does not floor arrivals at 0: every sampled delay stays
// non-negative while the library's SigmaRatio·TruncSigmas is at most 1
// (the default library's is 0.1·3), and past that bound an arrival may
// be negative, as it may in SSTA. ctx is checked every cancelCheckStride
// samples; sample returns how many samples it recorded and, when it
// stopped early, the wrapped context error.
func sample(ctx context.Context, d *design.Design, samples int, seed int64, draw drawFunc,
	record func(arr []float64, via []graph.EdgeID)) (int, error) {
	g := d.E.G
	rng := rand.New(rand.NewSource(seed))
	nominal := d.NominalDelays()
	delay := make([]float64, g.NumEdges())
	arr := make([]float64, g.NumNodes())
	via := make([]graph.EdgeID, g.NumNodes())
	for s := 0; s < samples; s++ {
		if s%cancelCheckStride == 0 && ctx.Err() != nil {
			return s, fmt.Errorf("montecarlo: canceled after %d samples: %w", s, ctx.Err())
		}
		draw(rng, nominal, delay)
		g.LongestPaths(delay, arr, via)
		record(arr, via)
	}
	return samples, nil
}

// sinkDelays runs sample with draw and returns the sorted sink arrivals.
// On cancellation the Result holds the samples drawn so far, sorted,
// alongside the wrapped context error, so a caller that chooses to can
// still read coarse statistics off the truncated sample set.
func sinkDelays(ctx context.Context, d *design.Design, samples int, seed int64, draw drawFunc) (*Result, error) {
	out := make([]float64, 0, samples)
	sink := d.E.G.Sink()
	_, err := sample(ctx, d, samples, seed, draw, func(arr []float64, _ []graph.EdgeID) {
		out = append(out, arr[sink])
	})
	sort.Float64s(out)
	return &Result{Delays: out}, err
}

// independent draws every gate arc's delay on its own from its
// truncated Gaussian: the paper's intra-die model.
func independent(lib *cell.Library) drawFunc {
	sigma, trunc := lib.SigmaRatio, lib.TruncSigmas
	return func(rng *rand.Rand, nominal, delay []float64) {
		for e, nom := range nominal {
			if nom != 0 {
				delay[e] = nom * (1 + sigma*truncNorm(rng, trunc))
			}
		}
	}
}

// Run simulates the design with the given sample count and seed. On
// cancellation it returns the partial (sorted) sample set together with
// the wrapped context error.
func Run(ctx context.Context, d *design.Design, samples int, seed int64) (*Result, error) {
	if samples < 1 {
		return nil, fmt.Errorf("montecarlo: %d samples", samples)
	}
	return sinkDelays(ctx, d, samples, seed, independent(d.Lib))
}

// truncNorm draws a standard normal rejected outside ±k.
func truncNorm(rng *rand.Rand, k float64) float64 {
	for {
		z := rng.NormFloat64()
		if z >= -k && z <= k {
			return z
		}
	}
}

// Percentile returns the p-quantile by linear interpolation of the order
// statistics. A result holding no samples — possible when a run is
// canceled before the first cancellation-check stride completes —
// returns NaN rather than panicking, so callers that keep a partial
// Result can probe it safely.
func (r *Result) Percentile(p float64) float64 {
	n := len(r.Delays)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return r.Delays[0]
	}
	if p <= 0 {
		return r.Delays[0]
	}
	if p >= 1 {
		return r.Delays[n-1]
	}
	x := p * float64(n-1)
	i := int(x)
	f := x - float64(i)
	if i+1 >= n {
		return r.Delays[n-1]
	}
	return r.Delays[i]*(1-f) + r.Delays[i+1]*f
}

// Mean returns the sample mean.
func (r *Result) Mean() float64 {
	s := 0.0
	for _, v := range r.Delays {
		s += v
	}
	return s / float64(len(r.Delays))
}

// Std returns the sample standard deviation.
func (r *Result) Std() float64 {
	m := r.Mean()
	s := 0.0
	for _, v := range r.Delays {
		s += (v - m) * (v - m)
	}
	if len(r.Delays) < 2 {
		return 0
	}
	return math.Sqrt(s / float64(len(r.Delays)-1))
}
