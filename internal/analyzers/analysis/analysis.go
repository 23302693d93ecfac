// Package analysis is the minimal static-analysis framework behind
// statlint, the suite internal/analyzers.TestRepoClean runs over the
// whole module. It mirrors the shape of golang.org/x/tools/go/analysis
// — an Analyzer owns a Run function that inspects one type-checked
// package through a Pass and reports Diagnostics — but is built purely
// on the standard library (go/parser, go/types, `go list`), because
// this repository vendors no third-party modules.
//
// The framework exists to machine-check the invariants DESIGN.md
// states in prose that no type carries: long propagation loops observe
// their context, and HTTP bodies are read bounded. See the sibling
// analyzer packages (ctxflow, boundeddecode) and DESIGN.md's "Enforced
// invariants" section, which also says where the invariants that need
// no analyzer live: lease release and session locking in Session.Do,
// Manager.Do and par.Locked, distribution ownership in dist.Owned and
// dist.Kept, per-worker scratch in par.Pool's worker states.
//
// A finding cannot be waived: it is fixed in the code, or in the
// analyzer when it is a false positive.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check; its package doc states the
// invariant. Run inspects a single package and reports findings
// through the Pass; it must not retain the Pass.
type Analyzer struct {
	Name string // short identifier, e.g. "ctxflow"
	Run  func(*Pass) error
}

// Pass carries everything an Analyzer needs to inspect one package:
// the syntax, the type information, and the reporting sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the
// diagnostics in (file, line, column, analyzer) order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
