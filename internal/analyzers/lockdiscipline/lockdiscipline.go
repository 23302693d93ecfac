// Package lockdiscipline implements the statlint check for the
// session-locking rule of DESIGN.md's "Concurrency model": on a struct
// type that embeds a sync.Mutex/sync.RWMutex (the Session pattern),
// every exported method must acquire the lock before touching guarded
// fields, and a method that holds the lock must not call another
// lock-taking method on the same receiver — the self-deadlock class
// the PR 3 NumGates/DT fix was an instance of.
//
// "Guarded" follows the standard Go declaration convention, which every
// mutex-holding struct in this repository honors: a mutex guards the
// fields declared after it, up to the next mutex. Fields declared above
// the first mutex are immutable-after-construction configuration
// (Engine.lib/bins/objective/parallelism, the pre-Run fields of
// par.batch) and may be read lock-free.
//
// Holding is recognized flow-insensitively: a method holds when it
// locks the mutex directly (recv.mu.Lock / recv.mu.RLock, or the
// embedded forms) or calls a method of the same type that does (the
// Do pattern, which holds the lock around its callback, so a wrapper's
// callback body counts as holding). Two findings follow:
//
//   - guard: an exported method reads or writes a guarded field of
//     the receiver without holding. Unexported methods are exempt —
//     they are the with-lock-held helpers the exported surface
//     delegates to (checkGate, the Tx working set).
//   - deadlock: a method that holds also calls a lock-taking method on
//     the same receiver (or acquires twice). Because the check cannot
//     order statements, a method that releases early and then calls a
//     locking sibling is a false positive — restructure it through the
//     Tx working view, or suppress with a reason.
//
// Beyond the same-struct convention, a field of any struct can declare
// a *foreign* guard with a machine-readable marker in its doc or line
// comment:
//
//	refs int // in-flight leases (guarded by Manager.mu)
//
// names a sync.Mutex/RWMutex field of another package-level struct as
// the field's guard — the Manager/entry pattern, where the pool's
// mutex protects the lease accounting inside every pooled entry. An
// exported function that touches a foreign-guarded field must hold the
// owner's lock: lock it directly (owner.mu.Lock / owner.mu.RLock) or
// call a lock-taking method of the owner type. Unexported functions
// are exempt, exactly like the with-lock-held helper convention above
// (leaseLocked, release, evictOneLocked). An annotation naming a
// nonexistent owner or a non-mutex field is itself a finding: a guard
// declaration that validates nothing is documentation pretending to be
// enforcement.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"statsize/internal/analyzers/analysis"
	"statsize/internal/analyzers/typeutil"
)

// Analyzer is the lockdiscipline pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "exported methods on mutex-holding types must acquire the lock before guarded fields, and must not nest lock-taking calls",
	Run:  run,
}

// method is the per-method evidence the two rules are judged on.
type method struct {
	decl       *ast.FuncDecl
	recv       *types.Var
	directLock bool           // recv...Lock()/RLock() appears in the body
	calls      map[string]int // direct recv.M() call counts, by method name
	callPos    map[string]ast.Node
	fieldUse   ast.Node // first guarded receiver field access
	fieldName  string
}

func run(pass *analysis.Pass) error {
	guarded := mutexTypes(pass)
	if len(guarded) == 0 {
		return nil
	}
	methods := make(map[string][]*method) // type name -> methods
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
				continue
			}
			tname := recvTypeName(fd)
			if _, ok := guarded[tname]; !ok {
				continue
			}
			methods[tname] = append(methods[tname], inspectMethod(pass, fd, guarded[tname]))
		}
	}
	for tname, ms := range methods {
		lockTaking := lockTakingSet(ms)
		primitives := directLockers(ms)
		for _, m := range ms {
			holds := m.directLock
			acquisitions := 0
			nested := 0
			var nestedAt ast.Node
			var nestedName string
			for name, cnt := range m.calls {
				if !lockTaking[name] {
					continue
				}
				if primitives[name] {
					acquisitions += cnt
					holds = true
					if nestedAt == nil {
						nestedAt, nestedName = m.callPos[name], name
					}
				} else {
					nested += cnt
					nestedAt, nestedName = m.callPos[name], name
				}
			}
			if holds && (nested >= 1 || acquisitions >= threshold(m)) {
				pass.Reportf(nestedAt.Pos(),
					"%s.%s holds the %s lock and calls lock-taking method %s on the same receiver: self-deadlock (work through the held Tx instead)",
					tname, m.decl.Name.Name, tname, nestedName)
			}
			if m.decl.Name.IsExported() && m.fieldUse != nil && !holds {
				pass.Reportf(m.fieldUse.Pos(),
					"exported method %s.%s accesses guarded field %s without acquiring the mutex",
					tname, m.decl.Name.Name, m.fieldName)
			}
		}
	}
	checkForeignGuards(pass, methods)
	return nil
}

// guardAnnotation is the machine-readable foreign-guard marker inside
// a field's doc or line comment: `guarded by Owner.mutexField`.
var guardAnnotation = regexp.MustCompile(`guarded by ([A-Za-z_]\w*)\.([A-Za-z_]\w*)`)

// foreignGuard names the mutex that protects an annotated field.
type foreignGuard struct {
	ownerName  string
	mutexField string
}

// checkForeignGuards enforces the `guarded by Owner.mu` annotations:
// every exported function touching an annotated field must hold the
// owner's lock. methods supplies the per-owner lock-taking sets
// already computed for the same-struct rule.
func checkForeignGuards(pass *analysis.Pass, methods map[string][]*method) {
	foreign := parseForeignGuards(pass)
	if len(foreign) == 0 {
		return
	}
	lockTakingByType := make(map[string]map[string]bool, len(methods))
	for tname, ms := range methods {
		lockTakingByType[tname] = lockTakingSet(ms)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			// First annotated access per owner; one finding each.
			type access struct {
				node  ast.Node
				field string
				guard foreignGuard
			}
			byOwner := make(map[string]access)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := pass.Info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				fv, ok := s.Obj().(*types.Var)
				if !ok {
					return true
				}
				if g, ok := foreign[fv]; ok {
					if _, seen := byOwner[g.ownerName]; !seen {
						byOwner[g.ownerName] = access{node: sel, field: fv.Name(), guard: g}
					}
				}
				return true
			})
			for owner, acc := range byOwner {
				if holdsOwnerLock(pass, fd.Body, acc.guard, lockTakingByType[owner]) {
					continue
				}
				pass.Reportf(acc.node.Pos(),
					"exported %s accesses field %s, guarded by %s.%s, without holding %s's lock (lock it directly or go through a lock-taking %s method)",
					fd.Name.Name, acc.field, owner, acc.guard.mutexField, owner, owner)
			}
		}
	}
}

// parseForeignGuards collects and validates the guarded-by field
// annotations of every package-level struct.
func parseForeignGuards(pass *analysis.Pass) map[*types.Var]foreignGuard {
	out := make(map[*types.Var]foreignGuard)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					g, ok := parseGuardComment(field)
					if !ok {
						continue
					}
					if !validGuardOwner(pass, g) {
						pass.Reportf(field.Pos(),
							"guarded-by annotation names %s.%s, which is not a sync.Mutex/RWMutex field of a package-level struct",
							g.ownerName, g.mutexField)
						continue
					}
					for _, name := range field.Names {
						if v, ok := pass.Info.Defs[name].(*types.Var); ok {
							out[v] = g
						}
					}
				}
			}
		}
	}
	return out
}

// parseGuardComment extracts the annotation from a field's line or doc
// comment.
func parseGuardComment(field *ast.Field) (foreignGuard, bool) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		if m := guardAnnotation.FindStringSubmatch(cg.Text()); m != nil {
			return foreignGuard{ownerName: m[1], mutexField: m[2]}, true
		}
	}
	return foreignGuard{}, false
}

// validGuardOwner reports whether the annotation names a real mutex:
// a package-level struct with a sync.Mutex/RWMutex field of that name.
func validGuardOwner(pass *analysis.Pass, g foreignGuard) bool {
	tn, ok := pass.Pkg.Scope().Lookup(g.ownerName).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == g.mutexField && isMutex(f.Type()) {
			return true
		}
	}
	return false
}

// holdsOwnerLock reports whether body acquires the guard's mutex: a
// direct owner.mu.Lock()/RLock() (or embedded owner.Lock()), or a call
// to a lock-taking method of the owner type.
func holdsOwnerLock(pass *analysis.Pass, body *ast.BlockStmt, g foreignGuard, lockTaking map[string]bool) bool {
	isOwner := func(e ast.Expr) bool {
		tv, ok := pass.Info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		p, n := typeutil.NamedPath(tv.Type)
		return p == pass.Pkg.Path() && n == g.ownerName
	}
	held := false
	ast.Inspect(body, func(n ast.Node) bool {
		if held {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := typeutil.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
		if fn == nil {
			return true
		}
		if (fn.Name() == "Lock" || fn.Name() == "RLock") && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			switch base := typeutil.Unparen(sel.X).(type) {
			case *ast.SelectorExpr:
				if base.Sel.Name == g.mutexField && isOwner(base.X) {
					held = true
				}
			default:
				if isOwner(sel.X) {
					held = true // embedded mutex: owner.Lock()
				}
			}
			return true
		}
		if lockTaking != nil && lockTaking[fn.Name()] && isOwner(sel.X) {
			held = true
		}
		return true
	})
	return held
}

// threshold is the acquisition count at which re-acquisition becomes a
// self-deadlock: any lock-taking call on top of a direct lock, or a
// second Do-style call.
func threshold(m *method) int {
	if m.directLock {
		return 1
	}
	return 2
}

// mutexTypes maps every package-level struct type name that holds a
// sync.Mutex/sync.RWMutex (including embedded) to the set of its
// guarded field names: by the standard declaration convention, the
// non-mutex fields declared after the first mutex field. Fields above
// the mutex are immutable-after-construction configuration and stay
// lock-free.
func mutexTypes(pass *analysis.Pass) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var guarded map[string]bool
		below := false
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isMutex(f.Type()) {
				below = true
				if guarded == nil {
					guarded = make(map[string]bool)
				}
				continue
			}
			if below {
				guarded[f.Name()] = true
			}
		}
		if guarded != nil {
			out[name] = guarded
		}
	}
	return out
}

func isMutex(t types.Type) bool {
	return typeutil.Is(t, "sync", "Mutex") || typeutil.Is(t, "sync", "RWMutex")
}

func recvTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// inspectMethod gathers one method's lock/call/field evidence.
func inspectMethod(pass *analysis.Pass, fd *ast.FuncDecl, guarded map[string]bool) *method {
	m := &method{
		decl:    fd,
		calls:   make(map[string]int),
		callPos: make(map[string]ast.Node),
	}
	if names := fd.Recv.List[0].Names; len(names) > 0 {
		m.recv, _ = pass.Info.Defs[names[0]].(*types.Var)
	}
	if m.recv == nil {
		return m
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := typeutil.Unparen(e).(*ast.Ident)
		return ok && pass.Info.Uses[id] == m.recv
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			sel, ok := typeutil.Unparen(e.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
			if fn == nil {
				return true
			}
			// Direct lock: a sync Lock/RLock whose selector chain roots
			// at the receiver (recv.mu.Lock or embedded recv.Lock).
			if (fn.Name() == "Lock" || fn.Name() == "RLock") &&
				fn.Pkg() != nil && fn.Pkg().Path() == "sync" && rootIsRecv(pass, sel, m.recv) {
				m.directLock = true
				return true
			}
			// Direct method call on the receiver itself.
			if isRecv(sel.X) {
				if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
					m.calls[fn.Name()]++
					if _, seen := m.callPos[fn.Name()]; !seen {
						m.callPos[fn.Name()] = e
					}
				}
			}
		case *ast.SelectorExpr:
			if m.fieldUse != nil || !isRecv(e.X) {
				return true
			}
			if s, ok := pass.Info.Selections[e]; ok && s.Kind() == types.FieldVal &&
				guarded[e.Sel.Name] && !isMutex(s.Type()) {
				m.fieldUse, m.fieldName = e, e.Sel.Name
			}
		}
		return true
	})
	return m
}

// rootIsRecv walks a selector chain (recv.mu.Lock, recv.Lock) down to
// its base identifier and reports whether it is the receiver.
func rootIsRecv(pass *analysis.Pass, sel *ast.SelectorExpr, recv *types.Var) bool {
	e := ast.Expr(sel)
	for {
		s, ok := typeutil.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			break
		}
		e = s.X
	}
	id, ok := typeutil.Unparen(e).(*ast.Ident)
	return ok && pass.Info.Uses[id] == recv
}

// directLockers returns the names of methods that lock the mutex
// directly — the acquisition primitives (Do, Close, ...).
func directLockers(ms []*method) map[string]bool {
	out := make(map[string]bool, len(ms))
	for _, m := range ms {
		if m.directLock {
			out[m.decl.Name.Name] = true
		}
	}
	return out
}

// lockTakingSet computes, to a fixpoint, the methods that take the
// lock: directly, or by calling a lock-taking sibling (the
// convenience-wrapper pattern).
func lockTakingSet(ms []*method) map[string]bool {
	taking := directLockers(ms)
	for changed := true; changed; {
		changed = false
		for _, m := range ms {
			name := m.decl.Name.Name
			if taking[name] {
				continue
			}
			for callee := range m.calls {
				if taking[callee] {
					taking[name] = true
					changed = true
					break
				}
			}
		}
	}
	return taking
}
