package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"statsize"
)

// The deterministic sizer reports the nominal delay, so its objective
// line must say so, and the Monte Carlo bound error must compare the
// session's SSTA p99, not that nominal delay, with the sampled p99.
func TestDeterministicReportsNominalDelay(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, &out, "c17", "", "deterministic", 3, 600, 0, 0.99, 1, 0, false, 0, 2000); err != nil {
		t.Fatal(err)
	}

	eng, err := statsize.New(statsize.WithBins(600), statsize.WithObjective(statsize.Percentile(0.99)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Open(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := eng.OptimizeSession(ctx, s, "deterministic", statsize.MaxIterations(3))
	if err != nil {
		t.Fatal(err)
	}
	bound, err := s.Percentile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := eng.MonteCarlo(ctx, res.Design, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := mc.Percentile(0.99)

	for _, want := range []string{
		fmt.Sprintf("objective (nominal delay): %.4f -> %.4f ns", res.InitialObjective, res.FinalObjective),
		fmt.Sprintf("Monte Carlo p99 (2000 samples): %.4f ns (bound error %+.2f%%)\n", p, 100*(bound-p)/p),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
