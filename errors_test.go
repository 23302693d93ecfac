package statsize

import (
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

// A NaN width set through Design.SetWidth is refused at the call, so
// no analysis ever sees it: SetWidth panics and leaves the width, every
// net load and the total width as they were.
func TestSetWidthNaNPanics(t *testing.T) {
	d, err := newEngine(t).Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	d.SetWidth(0, 2)
	width, total := d.Width(0), d.TotalWidth()
	loads := make([]float64, d.NL.NumNets())
	for n := range loads {
		loads[n] = d.Load(NetID(n))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetWidth(0, NaN) did not panic")
			}
		}()
		d.SetWidth(0, math.NaN())
	}()
	if d.Width(0) != width || d.TotalWidth() != total {
		t.Errorf("width %v, total %v after the panic; want %v, %v", d.Width(0), d.TotalWidth(), width, total)
	}
	for n, want := range loads {
		if got := d.Load(NetID(n)); got != want {
			t.Errorf("net %d load %v after the panic, want %v", n, got, want)
		}
	}
}
