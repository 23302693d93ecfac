package analyzers_test

import (
	"testing"

	"statsize/internal/analyzers"
	"statsize/internal/analyzers/analysis"
)

// TestRepoClean runs the full statlint suite over the whole module and
// requires silence. It is the only statlint gate: `go test ./...` runs
// it, and CI's statlint job runs it alone. A finding cannot be waived.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the whole module is not a -short test")
	}
	root, err := analysis.ModuleRoot("")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	pkgs, err := analysis.NewLoader(root).Load("./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	diags, err := analysis.Run(pkgs, analyzers.All())
	if err != nil {
		t.Fatalf("running statlint suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if t.Failed() {
		t.Log("fix the code, or the analyzer if the finding is a false positive; see internal/analyzers")
	}
}
