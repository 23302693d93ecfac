package dist_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/design"
	"statsize/internal/dist"
	"statsize/internal/graph"
	"statsize/internal/ssta"
)

// TestConvolveRealOperands runs every (fanin arrival, edge delay)
// convolution of a minimum-width forward pass through ConvolveInto
// with an arena, the route the SSTA passes take, and demands the bits
// of the one-row reference loop: on c1908 at 600 bins and on c6288 at
// 1600 bins, the grids of the optimize and explore workloads. Their
// arrivals' Gaussian low tails reach the subnormal range in the first
// bin, which the vector kernel adds as a column apart from its rows;
// the test fails if no call's operands take that path, so these
// circuits keep exercising it. Where the CPU lacks AVX2, ConvolveInto
// runs the portable loop, which the test then checks on the same
// operands.
func TestConvolveRealOperands(t *testing.T) {
	lib := cell.Default180nm()
	for _, c := range []struct {
		name string
		bins int
	}{{"c1908", 600}, {"c6288", 1600}} {
		t.Run(fmt.Sprintf("%s/bins%d", c.name, c.bins), func(t *testing.T) {
			sp, ok := circuitgen.ByName(c.name)
			if !ok {
				t.Fatalf("unknown circuit %s", c.name)
			}
			nl, err := circuitgen.Generate(lib, sp)
			if err != nil {
				t.Fatal(err)
			}
			d, err := design.New(nl, lib)
			if err != nil {
				t.Fatal(err)
			}
			a, err := ssta.Analyze(context.Background(), d, d.SuggestDT(c.bins))
			if err != nil {
				t.Fatal(err)
			}
			g := d.E.G
			ar := dist.NewArena()
			calls, column := 0, 0
			for e := range g.NumEdges() {
				delay := a.EdgeDelay(graph.EdgeID(e))
				if delay == nil {
					continue
				}
				from := a.Arrival(g.EdgeAt(graph.EdgeID(e)).From)
				ar.Reset()
				got, want := dist.ConvolveInto(ar, from, delay), dist.RefConvolve(from, delay)
				if got.I0() != want.I0() || got.NumBins() != want.NumBins() {
					t.Fatalf("edge %d: support [%d, +%d), reference [%d, +%d)", e, got.I0(), got.NumBins(), want.I0(), want.NumBins())
				}
				for k := range want.NumBins() {
					if math.Float64bits(got.MassAt(k)) != math.Float64bits(want.MassAt(k)) {
						t.Fatalf("edge %d: bin %d is %x, reference %x", e, k, got.MassAt(k), want.MassAt(k))
					}
				}
				calls++
				if dist.TakesLeadColumn(from, delay) {
					column++
				}
			}
			t.Logf("%d convolutions, %d with a subnormal lead bin taken as a column", calls, column)
			if column == 0 {
				t.Fatalf("none of %d convolutions has a subnormal lead bin on its longer operand", calls)
			}
		})
	}
}
