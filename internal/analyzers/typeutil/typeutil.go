// Package typeutil holds the small type-matching helpers shared by the
// statlint analyzers: resolving called functions, recognizing the
// types the invariants are phrased in terms of (context.Context,
// graph.NodeID, ...), and unwrapping expressions.
package typeutil

import (
	"go/ast"
	"go/types"
)

// GraphPath is the import path of the package whose ID types ctxflow
// recognizes as propagation-scale collections.
const GraphPath = "statsize/internal/graph"

// Unparen strips any number of enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// NamedPath returns the package path and name of t if it is a defined
// (named) type, unwrapping one level of pointer first; "" otherwise.
func NamedPath(t types.Type) (path, name string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// Is reports whether t (possibly behind one pointer) is the named type
// path.name.
func Is(t types.Type, path, name string) bool {
	p, n := NamedPath(t)
	return p == path && n == name
}

// SliceBase strips any number of slice/array layers off t.
func SliceBase(t types.Type) types.Type {
	for {
		switch u := t.Underlying().(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			return t
		}
	}
}

// Callee resolves the function or method object a call invokes, or nil
// for calls through function values, built-ins and conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsContext reports whether t is context.Context.
func IsContext(t types.Type) bool {
	return Is(t, "context", "Context")
}
