package experiments

import (
	"context"
	"flag"
	"strings"
	"testing"
)

func TestFlagOptionsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	resolve := FlagOptions(fs)
	if err := fs.Parse([]string{"-quiet"}); err != nil {
		t.Fatal(err)
	}
	o := resolve().withDefaults()
	if o.Iterations != 120 || o.Bins != 600 || o.MCSamples != 4000 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if len(o.Circuits) != 10 {
		t.Errorf("default circuits = %d, want full suite", len(o.Circuits))
	}
	if o.Progress != nil {
		t.Error("-quiet should suppress progress")
	}
}

// Without -quiet, progress lines go to the flag set's output, so a
// caller that redirects usage text redirects progress with it.
func TestFlagOptionsProgressToOutput(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var out strings.Builder
	fs.SetOutput(&out)
	resolve := FlagOptions(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	resolve().progress("table1: %s", "c17")
	if got := out.String(); got != "table1: c17\n" {
		t.Errorf("progress wrote %q to the flag set's output, want %q", got, "table1: c17\n")
	}
}

func TestFlagOptionsFullAndOverrides(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	resolve := FlagOptions(fs)
	args := strings.Fields("-full -circuits c432,c880 -iters 42 -timed-iters 7 -bins 512 -samples 999 -trace-points 9 -seed 5 -quiet")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	o := resolve()
	if o.Iterations != 42 || o.TimedIterations != 7 || o.Bins != 512 ||
		o.MCSamples != 999 || o.TracePoints != 9 || o.Seed != 5 {
		t.Errorf("overrides not honored: %+v", o)
	}
	if len(o.Circuits) != 2 || o.Circuits[0] != "c432" || o.Circuits[1] != "c880" {
		t.Errorf("circuit list = %v", o.Circuits)
	}
}

func TestCorrelationStudyQuick(t *testing.T) {
	opts := quickOpts()
	opts.Circuits = []string{"c17"}
	opts.MCSamples = 3000
	rows, err := CorrelationStudy(context.Background(), opts, []float64{0, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Stronger correlation widens the tail: the gap row at 0.6 shared
	// variance must exceed the independent row.
	if rows[1].P99MC <= rows[0].P99MC {
		t.Errorf("correlated p99 %v not above independent %v", rows[1].P99MC, rows[0].P99MC)
	}
	var b strings.Builder
	if err := RenderCorrelation(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "independence bound") {
		t.Error("render incomplete")
	}
}
