// Package analyzers registers the statlint suite: the custom static
// analyses that machine-check the memory-model and concurrency
// invariants DESIGN.md's "Memory model" and "Concurrency model"
// sections state in prose. cmd/statlint runs them (plus go vet) over
// the tree; the analyzer packages themselves document what each check
// enforces and where its flow-insensitive edges are.
package analyzers

import (
	"statsize/internal/analyzers/analysis"
	"statsize/internal/analyzers/arenashare"
	"statsize/internal/analyzers/boundeddecode"
	"statsize/internal/analyzers/ctxflow"
	"statsize/internal/analyzers/scratchescape"
)

// All returns the full statlint suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		arenashare.Analyzer,
		boundeddecode.Analyzer,
		ctxflow.Analyzer,
		scratchescape.Analyzer,
	}
}
