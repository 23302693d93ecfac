// Command statlint is the repository's invariant gate: it runs the
// custom analyzer suite in internal/analyzers — scratchescape,
// arenashare, ctxflow, boundeddecode — over the given packages, plus
// the standard go vet passes, and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/statlint ./...
//
// Every diagnostic is either a bug to fix or an intentional exception
// to mark with
//
//	//lint:allow statlint/<analyzer> <reason>
//
// on the flagged line or the line directly above. Suppressions are
// validated: an unknown analyzer name or a missing reason fails the
// run (exit 2) rather than silently disabling a check, and a
// suppression that no longer covers any finding is itself reported as
// a statlint/suppressaudit finding (exit 1) so the waiver list only
// shrinks. Findings exit 1; a clean tree exits 0.
//
// Flags:
//
//	-vet=false    skip the go vet step (the custom analyzers still run)
//	-fix          apply suggested fixes, then re-run the suite to verify;
//	              the exit code describes the tree after fixing
//	-json <path>  also write findings as JSON (see internal/analyzers/driver.Report)
//	              for CI annotation and artifact upload
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"statsize/internal/analyzers"
	"statsize/internal/analyzers/driver"
)

func main() {
	vet := flag.Bool("vet", true, "also run `go vet` over the same packages")
	fix := flag.Bool("fix", false, "apply suggested fixes, then re-run the analyzers to verify")
	jsonPath := flag.String("json", "", "write machine-readable findings to this `path`")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: statlint [flags] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nAnalyzers:\n")
		for _, a := range analyzers.All() {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(flag.CommandLine.Output(), "  %-15s %s\n", a.Name, doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "\nSuppress an intentional finding with //lint:allow statlint/<analyzer> <reason>\non the flagged line or the line directly above. Stale suppressions are\nthemselves findings (statlint/suppressaudit) and cannot be waived.\n")
	}
	flag.Parse()

	os.Exit(driver.Run(driver.Options{
		Patterns: flag.Args(),
		Fix:      *fix,
		JSONPath: *jsonPath,
		Vet:      *vet,
		Stdout:   os.Stdout,
		Stderr:   os.Stderr,
	}))
}
