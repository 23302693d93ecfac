package montecarlo

import (
	"context"
	"fmt"

	"statsize/internal/design"
	"statsize/internal/graph"
	"statsize/internal/netlist"
)

// Criticality estimates, for every gate, the probability that it lies on
// the circuit's critical path — the statistical generalization of "being
// on the critical path" that motivates why the paper's optimizer must
// compute sensitivities for all gates rather than one path (Section
// 3.1). It draws the samples Run draws at the same seed; each sample
// backtracks its longest path from the sink along the pass's winning
// fan-in edges and credits every gate on it. On cancellation it returns
// the estimate over the samples drawn so far (nil when none completed)
// with the wrapped context error.
func Criticality(ctx context.Context, d *design.Design, samples int, seed int64) ([]float64, error) {
	if samples < 1 {
		return nil, fmt.Errorf("montecarlo: %d samples", samples)
	}
	g := d.E.G
	counts := make([]int, d.NL.NumGates())
	done, err := sample(ctx, d, samples, seed, independent(d.Lib), func(_ []float64, via []graph.EdgeID) {
		for n := g.Sink(); n != g.Source(); n = g.EdgeAt(via[n]).From {
			if gid := d.E.EdgeGate[via[n]]; gid != netlist.NoGate {
				counts[gid]++
			}
		}
	})
	if done == 0 {
		return nil, err
	}
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) / float64(done)
	}
	return out, err
}
