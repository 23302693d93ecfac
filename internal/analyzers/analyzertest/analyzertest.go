// Package analyzertest runs a statlint analyzer over testdata corpora
// and matches its diagnostics against `// want` comments, following the
// golang.org/x/tools/go/analysis/analysistest convention.
//
// A corpus is a directory testdata/src/<name> next to the calling test,
// loaded through the same loader TestRepoClean uses (so corpus packages
// may import real statsize packages — testdata directories are
// invisible to the go tool, so TestRepoClean's ./... never loads them).
// Every line that must be flagged carries a trailing comment
//
//	code() // want `regexp`
//
// with one or more Go-quoted or backquoted regular expressions, each of
// which must match a distinct diagnostic of the analyzer on that line.
// Unmatched expectations and unexpected diagnostics both fail the test.
// A corpus with no want comments is the "clean twin" pattern: it
// asserts the analyzer's silence on the corrected shape of each seeded
// violation.
package analyzertest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"statsize/internal/analyzers/analysis"
)

// Run checks the analyzer's diagnostics against the want comments of
// each named corpus under testdata/src.
func Run(t *testing.T, a *analysis.Analyzer, corpora ...string) {
	t.Helper()
	loader := analysis.NewLoader("")
	for _, name := range corpora {
		t.Run(name, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name), "statlint/testdata/"+name)
			if err != nil {
				t.Fatalf("loading corpus %s: %v", name, err)
			}
			diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
			if err != nil {
				t.Fatalf("running %s on corpus %s: %v", a.Name, name, err)
			}
			check(t, pkg, diags)
		})
	}
}

// expectation is one parsed want regexp, consumed by at most one
// diagnostic on its line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	used bool
}

func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	expects := parseExpectations(t, pkg)
	for _, d := range diags {
		matched := false
		for _, e := range expects {
			if e.used || e.file != d.Pos.Filename || e.line != d.Pos.Line {
				continue
			}
			if e.re.MatchString(d.Message) {
				e.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range expects {
		if !e.used {
			t.Errorf("%s:%d: no diagnostic matched %q", e.file, e.line, e.raw)
		}
	}
}

// parseExpectations collects the want comments of every corpus file.
func parseExpectations(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want "))
				for rest != "" {
					lit, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: want expectation must be quoted regexps, got %q", pos.Filename, pos.Line, rest)
					}
					raw, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s:%d: unquoting %q: %v", pos.Filename, pos.Line, lit, err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: compiling want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
					rest = strings.TrimSpace(rest[len(lit):])
				}
			}
		}
	}
	return out
}
