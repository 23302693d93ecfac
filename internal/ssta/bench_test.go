package ssta

import (
	"context"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/circuitgen"
	"statsize/internal/design"
	"statsize/internal/netlist"
)

func benchDesign(b *testing.B, name string) *design.Design {
	b.Helper()
	lib := cell.Default180nm()
	sp, ok := circuitgen.ByName(name)
	if !ok {
		b.Fatalf("unknown circuit %s", name)
	}
	nl, err := circuitgen.Generate(lib, sp)
	if err != nil {
		b.Fatal(err)
	}
	d, err := design.New(nl, lib)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkAnalyze measures one full SSTA pass — the unit the brute
// force optimizer multiplies by the gate count.
func BenchmarkAnalyze(b *testing.B) {
	for _, name := range []string{"c432", "c3540"} {
		b.Run(name, func(b *testing.B) {
			d := benchDesign(b, name)
			dt := d.SuggestDT(600)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(context.Background(), d, dt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResizeCommitVsFull is the ablation for the incremental
// arrival recomputation: committing one sizing step by recomputing only
// the perturbed cone versus re-running the whole analysis.
func BenchmarkResizeCommitVsFull(b *testing.B) {
	const name = "c3540"
	b.Run("incremental", func(b *testing.B) {
		d := benchDesign(b, name)
		a, err := Analyze(context.Background(), d, d.SuggestDT(600))
		if err != nil {
			b.Fatal(err)
		}
		sc := NewScratch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := netlist.GateID(i % d.NL.NumGates())
			if _, err := a.ResizeCommit(context.Background(), g, d.Width(g)+d.Lib.DeltaW, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		d := benchDesign(b, name)
		dt := d.SuggestDT(600)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := netlist.GateID(i % d.NL.NumGates())
			d.SetWidth(g, d.Width(g)+d.Lib.DeltaW)
			if _, err := Analyze(context.Background(), d, dt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
