// Package boundeddecode implements the statlint check for the service
// tier's ingress discipline: HTTP bodies are attacker-sized input and
// must only be consumed through a bounded reader. The server decodes
// every request through decodeJSON in internal/server/wire.go, which
// hands json.NewDecoder an http.MaxBytesReader and rejects unknown
// fields, and clients cap their reads with io.LimitReader. Everything
// else is a finding:
//
//   - json.NewDecoder(x.Body) — unbounded decode straight off the wire
//   - io.ReadAll(x.Body)      — unbounded buffering
//   - io.Copy(dst, x.Body)    — unbounded draining
//
// where x.Body is the Body of a net/http Request or Response. No file
// is exempt. The check reads only the call's argument, so the cap goes
// in the call itself: a body reassigned to a bounded reader beforehand
// (r.Body = http.MaxBytesReader(…)) is still flagged, and a body read
// through a local alias is not.
package boundeddecode

import (
	"go/ast"

	"statsize/internal/analyzers/analysis"
	"statsize/internal/analyzers/typeutil"
)

// Analyzer is the boundeddecode pass.
var Analyzer = &analysis.Analyzer{
	Name: "boundeddecode",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := typeutil.Callee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			var body bool
			switch {
			case fn.Pkg().Path() == "encoding/json" && fn.Name() == "NewDecoder" && len(call.Args) == 1:
				body = httpBody(pass, call.Args[0])
			case fn.Pkg().Path() == "io" && fn.Name() == "ReadAll" && len(call.Args) == 1:
				body = httpBody(pass, call.Args[0])
			case fn.Pkg().Path() == "io" && fn.Name() == "Copy" && len(call.Args) == 2:
				body = httpBody(pass, call.Args[1])
			}
			if !body {
				return true
			}
			pass.Reportf(call.Pos(), "%s.%s reads an HTTP body unbounded: a hostile peer can hold the connection and exhaust memory; decode through wire.decodeJSON (server) or cap with io.LimitReader (client)",
				fn.Pkg().Name(), fn.Name())
			return true
		})
	}
	return nil
}

// httpBody reports whether arg is the Body field of a net/http Request
// or Response.
func httpBody(pass *analysis.Pass, arg ast.Expr) bool {
	sel, ok := typeutil.Unparen(arg).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Body" {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return typeutil.Is(tv.Type, "net/http", "Request") || typeutil.Is(tv.Type, "net/http", "Response")
}
