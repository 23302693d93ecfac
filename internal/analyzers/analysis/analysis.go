// Package analysis is the minimal static-analysis framework behind
// cmd/statlint. It mirrors the shape of golang.org/x/tools/go/analysis
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
// Intentional exceptions are suppressed in source with
//
//	//lint:allow statlint/<analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory and unknown analyzer names are a hard error, so stale or
// typoed suppressions cannot silently disable checking. Suppressions
// are audited against each run: a directive that covers no finding is
// itself reported under the reserved SuppressAuditName, which names no
// analyzer and therefore cannot be waived.
//
// Analyzers may attach a SuggestedFix to a Diagnostic; ApplyFixes
// turns the surviving fixes into file edits (cmd/statlint -fix).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Run inspects a single package
// and reports findings through the Pass; it must not retain the Pass.
type Analyzer struct {
	Name string // short identifier, e.g. "ctxflow"
	Doc  string // one-paragraph description of the invariant checked
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
	p.ReportfFix(pos, nil, format, args...)
}

// TextEdit is one replacement inside a suggested fix, in token.Pos
// coordinates. Pos == End inserts.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// SuggestedFix is an optional machine-applicable correction attached to
// a diagnostic. Fixes must be safe to apply blindly: `statlint -fix`
// applies them textually, gofmts the file, and re-runs the suite to
// verify the finding is gone.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// ReportfFix records a diagnostic at pos carrying a suggested fix
// (fix may be nil). Edit positions are resolved to byte offsets
// immediately, so the Diagnostic stays self-contained once the Pass is
// gone.
func (p *Pass) ReportfFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	d := Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	}
	if fix != nil {
		rf := &ResolvedFix{Message: fix.Message}
		for _, e := range fix.Edits {
			start := p.Fset.Position(e.Pos)
			end := start
			if e.End.IsValid() {
				end = p.Fset.Position(e.End)
			}
			rf.Edits = append(rf.Edits, Edit{
				File:    start.Filename,
				Start:   start.Offset,
				End:     end.Offset,
				NewText: e.NewText,
			})
		}
		d.Fix = rf
	}
	*p.diags = append(*p.diags, d)
}

// Diagnostic is one finding, already resolved to a file position. Fix,
// when non-nil, is a machine-applicable correction.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fix      *ResolvedFix
}

// ResolvedFix is a SuggestedFix with its edits resolved to byte
// offsets, ready for ApplyFixes.
type ResolvedFix struct {
	Message string
	Edits   []Edit
}

// Edit is one byte-offset splice in one file.
type Edit struct {
	File       string
	Start, End int
	NewText    string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// SuppressAuditName is the reserved analyzer name under which stale
// suppressions are reported. It is deliberately not a real analyzer:
// a //lint:allow naming it is an unknown-analyzer hard error, so an
// audit finding cannot itself be waived — the suppression list can
// only shrink.
const SuppressAuditName = "suppressaudit"

// Run applies every analyzer to every package and returns the
// surviving diagnostics in (file, line, column, analyzer) order, after
// removing findings covered by a //lint:allow suppression. A malformed
// or unknown suppression is an error, not a finding: the driver must
// refuse to certify a tree whose suppression state it cannot validate.
// A *stale* suppression — well-formed, but covering no finding any
// analyzer still reports — is appended as a finding of the reserved
// suppressaudit pseudo-analyzer, so obsolete waivers fail the gate the
// same way new violations do.
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
	kept, stale, err := applySuppressions(pkgs, analyzers, diags)
	if err != nil {
		return nil, err
	}
	for _, s := range stale {
		kept = append(kept, Diagnostic{
			Analyzer: SuppressAuditName,
			Pos:      token.Position{Filename: s.file, Line: s.line, Column: 1},
			Message: fmt.Sprintf("stale suppression: no statlint/%s finding on this or the next line; delete the //lint:allow (the waiver list only shrinks)",
				s.analyzer),
		})
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
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
	return kept, nil
}
