// Package ctxflow implements the statlint check for the Engine's
// partial-result cancellation contract: a function that accepts a
// context.Context and then iterates at propagation scale must actually
// observe that context, so cancellation latency stays bounded by one
// unit of work (the cancelCheckStride pattern in ssta and montecarlo).
//
// Two findings:
//
//   - dropped context: the function has a named context parameter and
//     contains loops, but the context is never used at all — neither
//     checked (ctx.Err, ctx.Done) nor forwarded to a callee.
//   - unchecked loop: a loop at propagation scale neither observes the
//     context itself nor sits inside a loop that does. "Propagation
//     scale" means the loop ranges over timing-graph node or edge
//     collections (graph.NodeID / graph.EdgeID elements, including the
//     level buckets), or is an unbounded for / for-cond loop that
//     performs calls.
//
// Deliberately out of scope: functions without a context parameter.
// The cancellation atom of this codebase is the per-node kernel
// evaluation — computeArrival and below are intentionally context-free,
// and their callers carry the context — so requiring a ctx parameter
// of everything that loops would mostly flag the atoms themselves.
// Bounded 3-clause loops (for i := 0; i < n; i++) are likewise exempt:
// the sample loops that matter already observe their context, and the
// remainder are small index loops. A loop observes the context when
// any identifier inside it (including inside closures it builds, and
// in its condition) refers to a context parameter — passing ctx to a
// callee counts, since every ctx-taking callee in this codebase checks
// cancellation itself.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"statsize/internal/analyzers/analysis"
	"statsize/internal/analyzers/typeutil"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Name.Name, fn.Type, fn.Body, fn.Name.Pos())
				}
			case *ast.FuncLit:
				checkFunc(pass, "func literal", fn.Type, fn.Body, fn.Pos())
			}
			return true
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, name string, ftype *ast.FuncType, body *ast.BlockStmt, pos token.Pos) {
	ctxs := ctxParams(pass, ftype)
	if len(ctxs) == 0 {
		return
	}
	uses := func(n ast.Node) bool { return usesCtx(pass, n, ctxs) }
	if !uses(body) {
		if hasOwnLoop(body) {
			pass.Reportf(pos, "%s accepts a context but never observes it while looping: check ctx.Err (or pass ctx on) so cancellation can interrupt the iteration", name)
		}
		return
	}
	// Walk the function's own loops (closures are checked as functions
	// of their own), tracking whether an enclosing loop already
	// observes the context.
	var visit func(n ast.Node, covered bool)
	visit = func(n ast.Node, covered bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			switch l := c.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt:
				observed := covered || uses(l)
				if !observed && substantial(pass, l) {
					pass.Reportf(l.Pos(), "%s in %s does not observe the function's context: no enclosing or local ctx.Err/ctx.Done check or ctx-forwarding call bounds cancellation latency", loopKind(l), name)
				}
				visit(l, observed)
				return false
			}
			return true
		})
	}
	visit(body, false)
}

// ctxParams collects the named, non-blank context.Context parameters.
func ctxParams(pass *analysis.Pass, ftype *ast.FuncType) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	if ftype.Params == nil {
		return out
	}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if v, ok := pass.Info.Defs[name].(*types.Var); ok && typeutil.IsContext(v.Type()) {
				out[v] = true
			}
		}
	}
	return out
}

// usesCtx reports whether any identifier under n refers to one of the
// context parameters. Closures are included: a loop that builds a
// ctx-checking closure or passes ctx to par.RunWith observes the context.
func usesCtx(pass *analysis.Pass, n ast.Node, ctxs map[*types.Var]bool) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok {
			if v, ok := pass.Info.Uses[id].(*types.Var); ok && ctxs[v] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// hasOwnLoop reports whether body contains a loop outside any nested
// function literal.
func hasOwnLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// substantial reports whether a loop is at propagation scale: a range
// over timing-graph node/edge collections, or an unbounded for loop
// that performs calls.
func substantial(pass *analysis.Pass, loop ast.Node) bool {
	switch l := loop.(type) {
	case *ast.RangeStmt:
		tv, ok := pass.Info.Types[l.X]
		if !ok || tv.Type == nil {
			return false
		}
		switch u := tv.Type.Underlying().(type) {
		case *types.Slice, *types.Array:
			return isGraphID(typeutil.SliceBase(tv.Type))
		case *types.Map:
			return isGraphID(typeutil.SliceBase(u.Key())) || isGraphID(typeutil.SliceBase(u.Elem()))
		}
		return false
	case *ast.ForStmt:
		if l.Init != nil || l.Post != nil {
			return false // bounded 3-clause loop
		}
		hasCall := false
		ast.Inspect(l.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.CallExpr); ok {
				hasCall = true
			}
			return !hasCall
		})
		return hasCall
	}
	return false
}

func isGraphID(t types.Type) bool {
	return typeutil.Is(t, typeutil.GraphPath, "NodeID") || typeutil.Is(t, typeutil.GraphPath, "EdgeID")
}

func loopKind(loop ast.Node) string {
	if _, ok := loop.(*ast.RangeStmt); ok {
		return "loop over timing-graph nodes/edges"
	}
	return "unbounded loop"
}
