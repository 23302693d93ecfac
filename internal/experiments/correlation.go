package experiments

import (
	"context"
	"fmt"
	"io"

	"statsize/internal/montecarlo"
	"statsize/internal/report"
	"statsize/internal/ssta"
)

// CorrelationRow quantifies the paper's stated limitation (Section 2):
// the independence-based bound does not model spatially correlated
// variation, and positive correlation widens the true delay tail beyond
// it.
type CorrelationRow struct {
	Circuit    string
	SharedFrac float64 // fraction of delay variance shared (global+region)
	P99Bound   float64 // SSTA bound (independence assumption)
	P99MC      float64 // correlated Monte Carlo
	GapPct     float64 // (MC - bound)/bound
}

// CorrelationStudy sweeps the shared-variance fraction on each circuit
// and reports how far the correlated Monte Carlo p99 moves past the
// independence bound.
func CorrelationStudy(ctx context.Context, opts Options, sharedFracs []float64) ([]CorrelationRow, error) {
	opts = opts.withDefaults()
	if len(sharedFracs) == 0 {
		sharedFracs = []float64{0, 0.25, 0.5, 0.75}
	}
	var rows []CorrelationRow
	for _, name := range opts.Circuits {
		opts.progress("correlation: %s", name)
		d, err := buildDesign(name, opts.Seed)
		if err != nil {
			return nil, err
		}
		a, err := ssta.Analyze(ctx, d, d.SuggestDT(opts.Bins))
		if err != nil {
			return nil, err
		}
		bound := a.Percentile(objectiveP)
		for _, frac := range sharedFracs {
			m := montecarlo.CorrModel{GlobalFrac: frac * 0.6, RegionFrac: frac * 0.4}
			mc, err := montecarlo.RunCorrelated(ctx, d, opts.MCSamples, opts.Seed+29, m)
			if err != nil {
				return nil, err
			}
			p99 := mc.Percentile(objectiveP)
			rows = append(rows, CorrelationRow{
				Circuit:    name,
				SharedFrac: frac,
				P99Bound:   bound,
				P99MC:      p99,
				GapPct:     100 * (p99 - bound) / bound,
			})
		}
	}
	return rows, nil
}

// RenderCorrelation writes the correlation study table.
func RenderCorrelation(w io.Writer, rows []CorrelationRow) error {
	t := report.NewTable(
		"Spatial correlation vs the independence bound (paper Section 2 limitation)",
		"circuit", "shared var", "p99 bound (ns)", "p99 corr-MC (ns)", "MC - bound %")
	for _, r := range rows {
		t.AddRowStrings(r.Circuit,
			fmt.Sprintf("%.0f%%", 100*r.SharedFrac),
			fmt.Sprintf("%.4f", r.P99Bound),
			fmt.Sprintf("%.4f", r.P99MC),
			fmt.Sprintf("%+.2f", r.GapPct))
	}
	return t.Render(w)
}
