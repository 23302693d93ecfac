package analyzers_test

import (
	"testing"

	"statsize/internal/analyzers"
	"statsize/internal/analyzers/analysis"
)

// TestRepoClean runs the full statlint suite over the whole module and
// requires silence, making `go test ./...` an enforcement gate for the
// cancellation and bounded-read invariants: a new violation (or a
// malformed suppression) fails this test even before CI's dedicated
// statlint job runs.
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
		t.Log("fix the finding or add a reasoned //lint:allow statlint/<analyzer> suppression; see internal/analyzers")
	}
}
