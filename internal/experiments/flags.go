package experiments

import (
	"flag"
	"fmt"
	"strings"
)

// FlagOptions registers the shared experiment flags on a FlagSet and
// returns a resolver to call after parsing. Every cmd/paper subcommand
// uses this so the quick and paper-scale protocols stay consistent.
// Progress lines go to the FlagSet's output unless -quiet is set.
func FlagOptions(fs *flag.FlagSet) func() Options {
	circuits := fs.String("circuits", "", "comma-separated circuit names (default: full suite)")
	iters := fs.Int("iters", 0, "sizing iterations (default 120; -full: 1000)")
	timed := fs.Int("timed-iters", 0, "iterations timed per optimizer in Table 2 (default 3)")
	bins := fs.Int("bins", 0, "SSTA grid bins (default 600)")
	samples := fs.Int("samples", 0, "Monte Carlo samples (default 4000; -full: 10000)")
	points := fs.Int("trace-points", 0, "points per Figure 10 curve (default 25)")
	seed := fs.Int64("seed", 0, "experiment seed")
	full := fs.Bool("full", false, "run the paper-scale protocol (slow)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	return func() Options {
		var o Options
		if *full {
			o = Full()
		}
		if *circuits != "" {
			for _, c := range strings.Split(*circuits, ",") {
				if c = strings.TrimSpace(c); c != "" {
					o.Circuits = append(o.Circuits, c)
				}
			}
		}
		if *iters > 0 {
			o.Iterations = *iters
		}
		if *timed > 0 {
			o.TimedIterations = *timed
		}
		if *bins > 0 {
			o.Bins = *bins
		}
		if *samples > 0 {
			o.MCSamples = *samples
		}
		if *points > 0 {
			o.TracePoints = *points
		}
		o.Seed = *seed
		if !*quiet {
			o.Progress = func(s string) { fmt.Fprintln(fs.Output(), s) }
		}
		return o
	}
}
