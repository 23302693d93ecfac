package statsize

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestBenchmarkUnknownCircuitError(t *testing.T) {
	_, err := newEngine(t).Benchmark("c1355x")
	var unknown *UnknownCircuitError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *UnknownCircuitError", err)
	}
	if unknown.Name != "c1355x" {
		t.Errorf("error names %q", unknown.Name)
	}
	if !strings.Contains(err.Error(), "c1355x") {
		t.Error("message should include the circuit name")
	}
}

func TestLoadBenchMalformedInput(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"garbage", "this is not a bench file\n"},
		{"unknown gate kind", "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n"},
		{"undriven net", "INPUT(a)\nOUTPUT(z)\nz = NOT(ghost)\n"},
		{"duplicate driver", "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = NOT(a)\n"},
		{"empty", ""},
	}
	eng := newEngine(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := eng.LoadBench(strings.NewReader(tc.src), tc.name)
			if err == nil {
				t.Fatalf("parsed %q into %v, want error", tc.src, d.NL)
			}
		})
	}
}

func TestGenerateCircuitRejectsBadSpec(t *testing.T) {
	_, err := newEngine(t).GenerateCircuit(CircuitSpec{Name: "bad", Nodes: 10, Edges: 2, PIs: 20, POs: 1, Depth: 3})
	if err == nil {
		t.Error("inconsistent spec accepted")
	}
}

// A NaN width set through Design.SetWidth turns into a non-finite gate
// delay, so every analysis entry must fail instead of reporting the
// timing from before the call.
func TestNaNWidthFailsAnalysis(t *testing.T) {
	eng := newEngine(t)
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	d.SetWidth(0, math.NaN())
	ctx := context.Background()
	if a, err := eng.AnalyzeSSTA(ctx, d); err == nil {
		t.Errorf("AnalyzeSSTA succeeded, p99 %v", a.Percentile(0.99))
	}
	if s, err := eng.Open(ctx, d); err == nil {
		s.Close()
		t.Error("Open succeeded")
	}
	if res, err := eng.Optimize(ctx, d, "accelerated", MaxIterations(1)); err == nil {
		t.Errorf("Optimize succeeded from initial width %v", res.InitialWidth)
	}
}
