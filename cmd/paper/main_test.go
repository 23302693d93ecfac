package main

import (
	"bytes"
	"context"
	"flag"
	"regexp"
	"strings"
	"testing"

	"statsize/internal/experiments"
)

var names = []string{"table1", "table2", "figure1", "figure2", "figure10", "bounds"}

// paper drives run as main does and returns its exit code and output.
func paper(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestSubcommandSet(t *testing.T) {
	var got []string
	for _, c := range commands {
		got = append(got, c.name)
	}
	if strings.Join(got, " ") != strings.Join(names, " ") {
		t.Fatalf("subcommands %v, want %v", got, names)
	}
}

// Each subcommand takes the shared experiment flags plus exactly the
// extras of the tool it replaced, with that tool's defaults. An extra
// maps to the default its -h text shows; "" means none, as for a
// false bool.
func TestSubcommandFlags(t *testing.T) {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	experiments.FlagOptions(fs)
	var shared []string
	fs.VisitAll(func(f *flag.Flag) { shared = append(shared, f.Name) })
	extras := map[string]map[string]string{
		"table1":   {"csv": ""},
		"table2":   {"csv": ""},
		"figure1":  {"circuit": `(default "c432")`},
		"figure2":  {"circuit": `(default "c432")`},
		"figure10": {"circuit": `(default "c3540")`, "csv": ""},
		"bounds":   {"corr": ""},
	}
	flagLine := regexp.MustCompile(`(?m)^  -(\S+)`)
	for _, name := range names {
		code, _, help := paper(t, name, "-h")
		if code != 0 {
			t.Fatalf("%s -h exited %d", name, code)
		}
		want := map[string]bool{}
		for _, f := range shared {
			want[f] = true
		}
		for f := range extras[name] {
			want[f] = true
		}
		// Split the help into one block per flag: its line and usage.
		lines := flagLine.FindAllStringSubmatchIndex(help, -1)
		if len(lines) != len(want) {
			t.Errorf("%s lists %d flags, want %d:\n%s", name, len(lines), len(want), help)
		}
		for i, m := range lines {
			f, end := help[m[2]:m[3]], len(help)
			if i+1 < len(lines) {
				end = lines[i+1][0]
			}
			if !want[f] {
				t.Errorf("%s has unexpected flag -%s", name, f)
				continue
			}
			def, extra := extras[name][f]
			if !extra {
				continue
			}
			block := help[m[0]:end]
			if (def == "" && strings.Contains(block, "(default")) || !strings.Contains(block, def) {
				t.Errorf("%s -%s: help %q, want default %q", name, f, block, def)
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"nope"}, {"-circuits", "c17"}} {
		code, out, errOut := paper(t, args...)
		if code != 2 || out != "" {
			t.Errorf("paper %q: exit %d, stdout %q; want exit 2 and no output", args, code, out)
		}
		for _, name := range names {
			if !strings.Contains(errOut, name) {
				t.Errorf("paper %q: stderr %q does not list %s", args, errOut, name)
			}
		}
	}
	if code, _, _ := paper(t, "table1", "-no-such-flag"); code != 2 {
		t.Errorf("an unknown flag exited %d, want 2", code)
	}
	if code, _, errOut := paper(t, "table1", "-circuits", "c404", "-quiet"); code != 1 || !strings.Contains(errOut, "c404") {
		t.Errorf("an unknown circuit exited %d with %q, want 1 naming it", code, errOut)
	}
}

// Every subcommand runs end to end on c17 at tiny settings and prints
// its title line, or its CSV header under -csv.
func TestSubcommandsRunOnC17(t *testing.T) {
	tiny := []string{"-bins", "200", "-iters", "2", "-timed-iters", "1", "-samples", "200", "-trace-points", "2", "-quiet"}
	for _, tc := range []struct {
		args  []string
		first string
	}{
		{[]string{"table1", "-circuits", "c17"}, "Table 1. Results for the 99-percentile delay point"},
		{[]string{"table1", "-circuits", "c17", "-csv"}, "circuit,nodes,edges,area_inc_pct,det_p99_ns,stat_p99_ns,impr_pct,det_iters,stat_iters"},
		{[]string{"table2", "-circuits", "c17"}, "Table 2. Results for the runtime improvement"},
		{[]string{"table2", "-circuits", "c17", "-csv"}, "circuit,brute_s_per_iter,accel_s_per_iter,factor,accel_min_s,accel_max_s,factor_min,factor_max,pruned_pct,iterations"},
		{[]string{"figure1", "-circuit", "c17"}, "Figure 1a. Path distribution after optimization (c17)"},
		{[]string{"figure2", "-circuit", "c17"}, "Figure 2. CDF perturbation from sizing gate 1 (c17)"},
		{[]string{"figure10", "-circuit", "c17"}, "Figure 10. Area-delay curve for c17"},
		{[]string{"figure10", "-circuit", "c17", "-csv"}, "method,iter,area,p99_bound_ns,p99_mc_ns"},
		{[]string{"bounds", "-circuits", "c17", "-corr"}, "SSTA bound vs Monte Carlo (Section 4 accuracy claim)"},
	} {
		code, out, errOut := paper(t, append(tc.args, tiny...)...)
		if code != 0 {
			t.Errorf("paper %q: exit %d: %s", tc.args, code, errOut)
			continue
		}
		if first, _, _ := strings.Cut(out, "\n"); first != tc.first {
			t.Errorf("paper %q: first line %q, want %q", tc.args, first, tc.first)
		}
		if tc.args[0] == "bounds" && !strings.Contains(out, "\nSpatial correlation vs the independence bound") {
			t.Errorf("paper bounds -corr printed no correlation table:\n%s", out)
		}
	}
}
