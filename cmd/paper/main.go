// Command paper regenerates the paper's Section 4 evaluation, one
// subcommand per table or figure:
//
//	paper table1   [-circuits c432,c880] [-iters N] [-bins B] [-full] [-csv]
//	paper table2   [-circuits c432,c880] [-timed-iters N] [-bins B] [-full] [-csv]
//	paper figure1  [-circuit c432] [-iters N] [-full]
//	paper figure2  [-circuit c432] [-bins B]
//	paper figure10 [-circuit c3540] [-iters N] [-samples M] [-full] [-csv]
//	paper bounds   [-circuits c432,c880] [-samples M] [-bins B] [-full] [-corr]
//
// table1 is the 99-percentile delay after deterministic versus
// statistical sizing at equal added area; table2 the per-iteration
// runtime of brute force versus the accelerated pruning algorithm;
// figure1 the deterministic "wall" of near-critical paths against the
// statistical optimizer's unbalanced profile; figure2 the sink CDF
// before and after one sizing step; figure10 the area-delay curves of
// both optimizers, each point evaluated with the SSTA bound and with
// Monte Carlo (the paper plots c3540); bounds the claim that the SSTA
// bound stays within about 1% of Monte Carlo at the 99th percentile,
// with -corr adding the spatial-correlation sweep.
//
// Every subcommand also takes the shared experiment flags (-h lists
// them). Ctrl-C cancels a run through its context.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"statsize/internal/experiments"
)

// A runner executes one configured experiment and writes its result.
type runner func(ctx context.Context, o experiments.Options, w io.Writer) error

// commands maps each subcommand, in the paper's order, to a function
// that registers its own flags on top of the shared experiment set and
// returns the run those flags configure.
var commands = []struct {
	name  string
	setup func(fs *flag.FlagSet) runner
}{
	{"table1", func(fs *flag.FlagSet) runner {
		csv := fs.Bool("csv", false, "emit CSV instead of the formatted table")
		return func(ctx context.Context, o experiments.Options, w io.Writer) error {
			rows, err := experiments.Table1(ctx, o)
			if err != nil {
				return err
			}
			if *csv {
				return experiments.Table1CSV(w, rows)
			}
			return experiments.RenderTable1(w, rows)
		}
	}},
	{"table2", func(fs *flag.FlagSet) runner {
		csv := fs.Bool("csv", false, "emit CSV instead of the formatted table")
		return func(ctx context.Context, o experiments.Options, w io.Writer) error {
			rows, err := experiments.Table2(ctx, o)
			if err != nil {
				return err
			}
			if *csv {
				return experiments.Table2CSV(w, rows)
			}
			return experiments.RenderTable2(w, rows)
		}
	}},
	{"figure1", func(fs *flag.FlagSet) runner {
		circuit := fs.String("circuit", "c432", "circuit to profile")
		return func(ctx context.Context, o experiments.Options, w io.Writer) error {
			res, err := experiments.Figure1(ctx, *circuit, o)
			if err != nil {
				return err
			}
			return res.Render(w)
		}
	}},
	{"figure2", func(fs *flag.FlagSet) runner {
		circuit := fs.String("circuit", "c432", "circuit to take one sizing step on")
		return func(ctx context.Context, o experiments.Options, w io.Writer) error {
			res, err := experiments.Figure2(ctx, *circuit, o)
			if err != nil {
				return err
			}
			return res.Render(w)
		}
	}},
	{"figure10", func(fs *flag.FlagSet) runner {
		circuit := fs.String("circuit", "c3540", "circuit to trace")
		csv := fs.Bool("csv", false, "emit curve points as CSV")
		return func(ctx context.Context, o experiments.Options, w io.Writer) error {
			res, err := experiments.Figure10(ctx, *circuit, o)
			if err != nil {
				return err
			}
			if *csv {
				return res.CSV(w)
			}
			return res.Render(w)
		}
	}},
	{"bounds", func(fs *flag.FlagSet) runner {
		corr := fs.Bool("corr", false, "also sweep spatially correlated variation against the bound")
		return func(ctx context.Context, o experiments.Options, w io.Writer) error {
			rows, err := experiments.BoundsVsMC(ctx, o)
			if err != nil {
				return err
			}
			if err := experiments.RenderBounds(w, rows); err != nil {
				return err
			}
			if !*corr {
				return nil
			}
			crows, err := experiments.CorrelationStudy(ctx, o, nil)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
			return experiments.RenderCorrelation(w, crows)
		}
	}},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args[0] to its subcommand and returns the exit code:
// 0 on success or -h, 1 when the experiment fails, 2 on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	for _, c := range commands {
		if len(args) == 0 || args[0] != c.name {
			continue
		}
		fs := flag.NewFlagSet("paper "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		resolve := experiments.FlagOptions(fs)
		exec := c.setup(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		if err := exec(ctx, resolve(), stdout); err != nil {
			fmt.Fprintf(stderr, "paper %s: %v\n", c.name, err)
			return 1
		}
		return 0
	}
	if len(args) > 0 {
		fmt.Fprintf(stderr, "paper: unknown subcommand %q\n", args[0])
	}
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	fmt.Fprintf(stderr, "usage: paper {%s} [flags]\n", strings.Join(names, "|"))
	return 2
}
