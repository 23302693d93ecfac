package montecarlo

import (
	"context"
	"math"
	"sort"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/design"
)

func c432Design(t *testing.T) *design.Design {
	t.Helper()
	lib := cell.Default180nm()
	sp, ok := circuitgen.ByName("c432")
	if !ok {
		t.Fatal("no c432 spec")
	}
	nl, err := circuitgen.Generate(lib, sp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.New(nl, lib)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// pinBits fails unless v has exactly the float64 bits want.
func pinBits(t *testing.T, what string, v float64, want uint64) {
	t.Helper()
	if got := math.Float64bits(v); got != want {
		t.Errorf("%s = %v (bits %#016x), want bits %#016x", what, v, got, want)
	}
}

// TestDrawsPinned pins the exact results of all three samplers on c432
// at seed 7, so a change that reorders or drops random draws, or alters
// the longest-path pass, fails here even when it stays deterministic by
// seed.
func TestDrawsPinned(t *testing.T) {
	d := c432Design(t)
	ctx := context.Background()

	r, err := Run(ctx, d, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	pinBits(t, "Run p50", r.Percentile(0.5), 0x3ffb604acf32afc0)
	pinBits(t, "Run p99", r.Percentile(0.99), 0x3ffcdaf56420a5d8)
	pinBits(t, "Run mean", r.Mean(), 0x3ffb63e8f0782e82)

	rc, err := RunCorrelated(ctx, d, 4000, 7, CorrModel{GlobalFrac: 0.3, RegionFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	pinBits(t, "RunCorrelated p50", rc.Percentile(0.5), 0x3ffb38b4d1f411d8)
	pinBits(t, "RunCorrelated p99", rc.Percentile(0.99), 0x3ffec2ee400b5955)

	crit, err := Criticality(ctx, d, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	gates := make([]int, len(crit))
	for i := range gates {
		gates[i] = i
	}
	sort.SliceStable(gates, func(a, b int) bool { return crit[gates[a]] > crit[gates[b]] })
	want := []struct {
		gate int
		bits uint64
	}{
		{11, 0x3fee126e978d4fdf},
		{27, 0x3fe40624dd2f1aa0},
		{41, 0x3fe40624dd2f1aa0},
		{64, 0x3fe404189374bc6a},
		{81, 0x3fe404189374bc6a},
	}
	for i, w := range want {
		if g := gates[i]; g != w.gate {
			t.Errorf("criticality rank %d: gate %d (%v, bits %#016x), want gate %d",
				i, g, crit[g], math.Float64bits(crit[g]), w.gate)
			continue
		}
		pinBits(t, "criticality of the ranked gate", crit[w.gate], w.bits)
	}
}
