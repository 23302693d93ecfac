// Package analyzers registers the statlint suite: the custom static
// analyses that machine-check the cancellation and bounded-read
// disciplines DESIGN.md's "Enforced invariants" section states.
// TestRepoClean, the only statlint gate, runs them over the whole
// module in every `go test ./...` and fails on any finding; nothing can
// waive one. The analyzer packages themselves document what each check
// enforces and where its flow-insensitive edges are. The memory-model
// rules need no analyzer: dist.Owned, dist.Kept and par.Pool's
// per-worker state carry them in types.
package analyzers

import (
	"statsize/internal/analyzers/analysis"
	"statsize/internal/analyzers/boundeddecode"
	"statsize/internal/analyzers/ctxflow"
)

// All returns the full statlint suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		boundeddecode.Analyzer,
		ctxflow.Analyzer,
	}
}
