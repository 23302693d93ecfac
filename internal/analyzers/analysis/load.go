package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// modulePath is the import prefix of this repository's own packages.
// Imports under it are type-checked from source in dependency order;
// everything else is assumed to be the standard library and delegated
// to go/importer's source importer. The prefix is a constant rather
// than parsed from go.mod because the analyzers themselves hard-code
// statsize types (graph.NodeID, the server's wire helpers) — the suite
// is repo-specific by design.
const modulePath = "statsize"

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path ("statlint/testdata" paths are synthetic)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages with a shared FileSet and
// package cache. It replaces golang.org/x/tools/go/packages using only
// the standard library: `go list -json -deps` supplies metadata in
// dependency order, go/types checks each package, and the source
// importer resolves standard-library imports. A Loader is not safe for
// concurrent use.
type Loader struct {
	fset    *token.FileSet
	checked map[string]*Package
	std     types.Importer
	dir     string // working directory for go list (anywhere in the module)
}

// ModuleRoot locates the root directory of the module enclosing dir
// ("" means the process cwd) via `go env GOMOD`. Callers that want to
// load the whole module from an arbitrary package directory pair this
// with the "./..." pattern: directory-relative patterns stay inside the
// main module, while a module-path wildcard like "statsize/..." makes
// the go tool consult the full module graph — which the lint-toolchain
// require in go.mod leaves unresolvable offline (no go.sum, no module
// cache).
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("analysis: %q is not inside a Go module", dir)
	}
	return filepath.Dir(gomod), nil
}

// NewLoader returns a loader that resolves `go list` patterns relative
// to dir (any directory inside the module; "" means the process cwd).
func NewLoader(dir string) *Loader {
	l := &Loader{
		fset:    token.NewFileSet(),
		checked: make(map[string]*Package),
		dir:     dir,
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	return l
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Standard   bool
	GoFiles    []string
}

// goList runs `go list -json` with the given arguments and decodes the
// package stream.
func (l *Loader) goList(args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=Dir,ImportPath,Standard,GoFiles"}, args...)...)
	cmd.Dir = l.dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listPkg
	for dec.More() {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list %s: decoding output: %v", strings.Join(args, " "), err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load resolves the patterns and returns the matched packages, fully
// type-checked. Dependencies are checked too (they are needed for type
// information) but only pattern matches are returned, in import-path
// order. Test files are not loaded: the invariants under check are
// production-code contracts, and the testdata corpora that exercise
// the analyzers are plain non-test packages.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	deps, err := l.goList(append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	// -deps emits dependencies before dependents, so a single in-order
	// sweep always finds a package's imports already checked.
	for _, p := range deps {
		if p.Standard {
			continue
		}
		if _, err := l.check(p); err != nil {
			return nil, err
		}
	}
	targets, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range targets {
		if pkg, ok := l.checked[p.ImportPath]; ok {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir type-checks the .go files of a single directory as a package
// with the given synthetic import path — the route the analyzer test
// corpora take, since directories under testdata/ are invisible to the
// go tool. Imports are resolved like any other load, so corpus
// packages may import real statsize packages.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, name)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)
	return l.check(listPkg{Dir: dir, ImportPath: path, GoFiles: files})
}

// check parses and type-checks one package and caches the result.
func (l *Loader) check(p listPkg) (*Package, error) {
	if pkg, ok := l.checked[p.ImportPath]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(p.ImportPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", p.ImportPath, err)
	}
	pkg := &Package{
		Path:  p.ImportPath,
		Dir:   p.Dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.checked[p.ImportPath] = pkg
	return pkg, nil
}

// loaderImporter adapts the loader's cache into a types.Importer:
// module-local imports come from the cache (loading on demand for the
// LoadDir route, whose imports are not pre-walked by `go list -deps`),
// "unsafe" is the magic package, and everything else is standard
// library resolved from GOROOT source.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.checked[path]; ok {
		return pkg.Types, nil
	}
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		deps, err := l.goList("-deps", path)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			if p.Standard {
				continue
			}
			if _, err := l.check(p); err != nil {
				return nil, err
			}
		}
		if pkg, ok := l.checked[path]; ok {
			return pkg.Types, nil
		}
		return nil, fmt.Errorf("analysis: package %s not found", path)
	}
	return l.std.Import(path)
}
