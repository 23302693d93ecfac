package analysis_test

import (
	"testing"

	"statsize/internal/analyzers/analysis"
)

// TestLoadModulePackage: the loader resolves module-import-path
// patterns through `go list` and returns fully type-checked packages.
func TestLoadModulePackage(t *testing.T) {
	pkgs, err := analysis.NewLoader("").Load("statsize/internal/dist")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Types == nil || pkgs[0].Types.Path() != "statsize/internal/dist" {
		t.Fatalf("Load returned %+v, want one type-checked statsize/internal/dist package", pkgs)
	}
	if pkgs[0].Types.Scope().Lookup("Arena") == nil {
		t.Fatalf("loaded dist package is missing the Arena type")
	}
}
