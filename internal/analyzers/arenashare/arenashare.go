// Package arenashare implements the statlint check for the
// single-goroutine ownership rule of DESIGN.md's "Memory model": a
// *dist.Arena, *dist.Keeper, *dist.Recycler or *ssta.Scratch serves
// exactly one goroutine — nothing in them is synchronized — so parallel paths must
// hold one per worker, indexed by the worker ordinal par.RunIndexed
// reports.
//
// The check flags a shared-state identifier of one of those types when
// it is captured by (or passed into) code that runs on another
// goroutine:
//
//   - captured by the function literal of a `go` statement, or passed
//     as an argument to the call a `go` statement launches
//   - captured by a function literal handed to par.Run, par.RunIndexed,
//     Pool.Run or Pool.RunIndexed
//
// The sanctioned pattern — a slice of per-worker arenas indexed by the
// worker ordinal (arenas[w]) — passes automatically, because the
// captured identifier then has slice type, not arena type. The check
// does not prove the index used is the worker ordinal, and it does not
// see arenas smuggled through fields of captured structs; those remain
// review territory. A deliberate ownership handoff to a single
// goroutine is expressed with a //lint:allow suppression.
package arenashare

import (
	"go/ast"
	"go/types"

	"statsize/internal/analyzers/analysis"
	"statsize/internal/analyzers/typeutil"
)

// Analyzer is the arenashare pass.
var Analyzer = &analysis.Analyzer{
	Name: "arenashare",
	Doc:  "per-goroutine scratch state (dist.Arena, dist.Keeper, dist.Recycler, ssta.Scratch) must not be captured by goroutines or par.Run workers",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				for _, arg := range st.Call.Args {
					if name := sharedTypeName(pass.Info.Types[arg].Type); name != "" {
						pass.Reportf(arg.Pos(), "%s passed into a goroutine: scratch state serves one goroutine, use per-worker instances", name)
					}
				}
				if lit, ok := typeutil.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
					checkCaptures(pass, lit, "a `go` statement")
				}
			case *ast.CallExpr:
				if !isParRun(pass, st) || len(st.Args) == 0 {
					return true
				}
				if lit, ok := typeutil.Unparen(st.Args[len(st.Args)-1]).(*ast.FuncLit); ok {
					checkCaptures(pass, lit, "a par worker function")
				}
			}
			return true
		})
	}
	return nil
}

// isParRun reports whether a call is one of the par fan-out entry
// points (package functions Run/RunIndexed or the Pool methods).
func isParRun(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := typeutil.Callee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != typeutil.ParPath {
		return false
	}
	return fn.Name() == "Run" || fn.Name() == "RunIndexed"
}

// sharedTypeName names t when it is one of the single-goroutine scratch
// types, "" otherwise.
func sharedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	switch {
	case typeutil.IsPtrTo(t, typeutil.DistPath, "Arena"):
		return "*dist.Arena"
	case typeutil.IsPtrTo(t, typeutil.DistPath, "Keeper"):
		return "*dist.Keeper"
	case typeutil.IsPtrTo(t, typeutil.DistPath, "Recycler"):
		return "*dist.Recycler"
	case typeutil.IsPtrTo(t, typeutil.SSTAPath, "Scratch"):
		return "*ssta.Scratch"
	}
	return ""
}

// checkCaptures reports scratch state reaching the literal from
// outside: a free variable of a scratch type, or a scratch-typed field
// selected directly off a free variable (base.arena — the whole struct
// is shared, so its arena is too). Selections whose base is itself
// indexed (workers[w].arena) pass: that is the sanctioned per-worker
// pattern, and whether w is really the worker ordinal stays review
// territory. A variable is free when its declaration lies outside the
// literal's extent; each is reported once per literal, at first use.
func checkCaptures(pass *analysis.Pass, lit *ast.FuncLit, where string) {
	type site struct {
		v     *types.Var
		field string
	}
	seen := make(map[site]bool)
	freeVar := func(e ast.Expr) *types.Var {
		id, ok := typeutil.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return nil
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return nil // declared inside the literal (param or local)
		}
		return v
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			sel, ok := pass.Info.Selections[e]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			name := sharedTypeName(sel.Type())
			if name == "" {
				return true
			}
			if v := freeVar(e.X); v != nil && !seen[site{v, e.Sel.Name}] {
				seen[site{v, e.Sel.Name}] = true
				pass.Reportf(e.Pos(), "%s %q of captured %q is shared across goroutines by %s: hold one per worker and index by the worker ordinal", name, e.Sel.Name, exprIdent(e.X), where)
			}
		case *ast.Ident:
			v, ok := pass.Info.Uses[e].(*types.Var)
			if !ok || v.IsField() || seen[site{v, ""}] {
				return true
			}
			if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
				return true
			}
			if name := sharedTypeName(v.Type()); name != "" {
				seen[site{v, ""}] = true
				pass.Reportf(e.Pos(), "%s %q captured by %s is shared across goroutines: hold one per worker and index by the worker ordinal", name, e.Name, where)
			}
		}
		return true
	})
}

// exprIdent names the base identifier of a selector for diagnostics.
func exprIdent(e ast.Expr) string {
	if id, ok := typeutil.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
