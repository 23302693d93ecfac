package montecarlo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"statsize/internal/design"
	"statsize/internal/graph"
	"statsize/internal/netlist"
)

// CorrModel describes spatially correlated intra-die variation in the
// grid style of Chang & Sapatnekar (ICCAD'03, the paper's reference
// [5]): each gate's delay deviation mixes a chip-global component, a
// placement-region component, and an independent local component. The
// paper's optimizer explicitly does not model such correlations
// (Section 2); RunCorrelated exists to quantify what that costs.
type CorrModel struct {
	// GlobalFrac and RegionFrac are the variance fractions of the shared
	// components; the remainder is gate-local. Both non-negative with
	// sum <= 1.
	GlobalFrac float64
	RegionFrac float64
	// Grid is the placement grid arity (Grid x Grid regions). Gates are
	// assigned to regions by a synthetic row-major placement of the
	// netlist. Default 4.
	Grid int
}

// Validate checks the variance budget.
func (m CorrModel) Validate() error {
	if m.GlobalFrac < 0 || m.RegionFrac < 0 || m.GlobalFrac+m.RegionFrac > 1 {
		return fmt.Errorf("montecarlo: variance fractions %v+%v invalid", m.GlobalFrac, m.RegionFrac)
	}
	return nil
}

// RunCorrelated simulates the design under spatially correlated
// variation. Each sample draws one global normal, one normal per grid
// region and one per gate, mixes them by the model's variance fractions,
// clamps the combined deviation at the library's truncation, and runs a
// longest-path pass. With GlobalFrac = RegionFrac = 0 it degenerates to
// the independent model of Run (up to the clamping of the combined
// deviate).
func RunCorrelated(ctx context.Context, d *design.Design, samples int, seed int64, m CorrModel) (*Result, error) {
	if samples < 1 {
		return nil, fmt.Errorf("montecarlo: %d samples", samples)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	grid := m.Grid
	if grid <= 0 {
		grid = 4
	}
	region := placeGates(d, grid)
	sigma, trunc := d.Lib.SigmaRatio, d.Lib.TruncSigmas
	wGlobal := math.Sqrt(m.GlobalFrac)
	wRegion := math.Sqrt(m.RegionFrac)
	wLocal := math.Sqrt(1 - m.GlobalFrac - m.RegionFrac)
	regionZ := make([]float64, grid*grid)
	gateZ := make([]float64, d.NL.NumGates())
	return sinkDelays(ctx, d, samples, seed, func(rng *rand.Rand, nominal, delay []float64) {
		zg := rng.NormFloat64()
		for r := range regionZ {
			regionZ[r] = rng.NormFloat64()
		}
		for i := range gateZ {
			z := wGlobal*zg + wRegion*regionZ[region[i]] + wLocal*rng.NormFloat64()
			if z > trunc {
				z = trunc
			} else if z < -trunc {
				z = -trunc
			}
			gateZ[i] = z
		}
		for e := range delay {
			if gid := d.E.EdgeGate[graph.EdgeID(e)]; gid != netlist.NoGate {
				delay[e] = nominal[e] * (1 + sigma*gateZ[gid])
			}
		}
	})
}

// placeGates assigns gates to grid regions with a synthetic row-major
// placement ordered by logic level then ID — adjacent logic tends to
// share a region, which is what makes spatial correlation matter.
func placeGates(d *design.Design, grid int) []int {
	n := d.NL.NumGates()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	level := func(gi int) int {
		return d.E.G.Level(d.E.NodeOf[d.NL.Gate(netlist.GateID(gi)).Out])
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := level(order[a]), level(order[b])
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	region := make([]int, n)
	cells := grid * grid
	perCell := (n + cells - 1) / cells
	for rank, gi := range order {
		region[gi] = rank / perCell
	}
	return region
}
