package statsize

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"statsize/internal/core"
)

// optimizers maps each strategy name to the function that runs it. A
// strategy drives the session it is given — holding it through one
// Session.Do, evaluating candidates against its live analysis, and
// committing width changes through its incremental Resize — and
// returns partial results wrapped around the context error on
// cancellation. The table is fixed: nothing writes it after this
// declaration, so every read is safe without a lock.
var optimizers = map[string]func(ctx context.Context, s *Session, cfg Config) (*Result, error){
	// The three optimizers of the paper.
	"deterministic": core.Deterministic,
	"brute-force":   core.BruteForce,
	"accelerated":   core.Accelerated,
	// The extensions the paper names as future work, with sensible
	// defaults (both remain reachable through the accelerated
	// optimizer's Config knobs too).
	"heuristic-levels": func(ctx context.Context, s *Session, cfg Config) (*Result, error) {
		if cfg.HeuristicLevels <= 0 {
			cfg.HeuristicLevels = 4
		}
		return core.Accelerated(ctx, s, cfg)
	},
	"multi-size": func(ctx context.Context, s *Session, cfg Config) (*Result, error) {
		if cfg.MultiSize <= 1 {
			cfg.MultiSize = 3
		}
		return core.Accelerated(ctx, s, cfg)
	},
}

// Optimizers lists the optimizer names, sorted.
func Optimizers() []string { return slices.Sorted(maps.Keys(optimizers)) }

// UnknownOptimizerError reports a name that is not an optimizer.
type UnknownOptimizerError struct {
	Name  string
	Known []string
}

func (e *UnknownOptimizerError) Error() string {
	return fmt.Sprintf("statsize: unknown optimizer %q (registered: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

func lookupOptimizer(name string) (func(ctx context.Context, s *Session, cfg Config) (*Result, error), error) {
	run, ok := optimizers[name]
	if !ok {
		return nil, &UnknownOptimizerError{Name: name, Known: Optimizers()}
	}
	return run, nil
}
