package statsize

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"statsize/internal/core"
)

// Optimizer is a pluggable gate-sizing strategy. Implementations drive
// the Session they are given — holding it through one Session.Do,
// evaluating candidates against its live analysis, and committing width
// changes through its incremental Resize — and must honor ctx,
// returning partial results wrapped around the context error on
// cancellation. Driving a session rather than a bare design is what
// gives every strategy (including external RegisterOptimizer plugins)
// incremental commits, transactional checkpoints, cancellation and
// stats accounting for free.
//
// Strategies register once with RegisterOptimizer and are then
// addressable by name through Engine.Optimize, Engine.OptimizeSession
// and Engine.OptimizeSuite, so new algorithms — a future Gaussian-guided
// sizer, an ML proposal distribution — plug in without touching the
// facade.
type Optimizer interface {
	// Name is the registry key, lower-case and stable.
	Name() string
	// Optimize sizes the session's design under cfg.
	Optimize(ctx context.Context, s *Session, cfg Config) (*Result, error)
}

// SessionOptimizerFunc adapts a session-driving function to the
// Optimizer interface.
type SessionOptimizerFunc struct {
	OptName string
	Run     func(ctx context.Context, s *Session, cfg Config) (*Result, error)
}

// Name returns the registry key.
func (o SessionOptimizerFunc) Name() string { return o.OptName }

// Optimize runs the wrapped function.
func (o SessionOptimizerFunc) Optimize(ctx context.Context, s *Session, cfg Config) (*Result, error) {
	return o.Run(ctx, s, cfg)
}

var optRegistry = struct {
	sync.RWMutex
	m map[string]Optimizer
}{m: make(map[string]Optimizer)}

// RegisterOptimizer adds a sizing strategy to the registry. The name
// must be non-empty and unused; registration is safe for concurrent
// use.
func RegisterOptimizer(o Optimizer) error {
	name := o.Name()
	if name == "" {
		return fmt.Errorf("statsize: optimizer with empty name")
	}
	optRegistry.Lock()
	defer optRegistry.Unlock()
	if _, dup := optRegistry.m[name]; dup {
		return fmt.Errorf("statsize: optimizer %q already registered", name)
	}
	optRegistry.m[name] = o
	return nil
}

// Optimizers lists the registered strategy names, sorted.
func Optimizers() []string {
	optRegistry.RLock()
	defer optRegistry.RUnlock()
	names := make([]string, 0, len(optRegistry.m))
	for name := range optRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// UnknownOptimizerError reports a name absent from the registry.
type UnknownOptimizerError struct {
	Name  string
	Known []string
}

func (e *UnknownOptimizerError) Error() string {
	return fmt.Sprintf("statsize: unknown optimizer %q (registered: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

func lookupOptimizer(name string) (Optimizer, error) {
	optRegistry.RLock()
	o, ok := optRegistry.m[name]
	optRegistry.RUnlock()
	if !ok {
		return nil, &UnknownOptimizerError{Name: name, Known: Optimizers()}
	}
	return o, nil
}

func mustRegister(o Optimizer) {
	if err := RegisterOptimizer(o); err != nil {
		panic(err)
	}
}

func init() {
	// The three optimizers of the paper, session-driving natively.
	mustRegister(SessionOptimizerFunc{"deterministic", core.Deterministic})
	mustRegister(SessionOptimizerFunc{"brute-force", core.BruteForce})
	mustRegister(SessionOptimizerFunc{"accelerated", core.Accelerated})
	// The extensions the paper names as future work, exposed as
	// first-class strategies with sensible defaults (both remain
	// reachable through the accelerated optimizer's Config knobs too).
	mustRegister(SessionOptimizerFunc{"heuristic-levels", func(ctx context.Context, s *Session, cfg Config) (*Result, error) {
		if cfg.HeuristicLevels <= 0 {
			cfg.HeuristicLevels = 4
		}
		return core.Accelerated(ctx, s, cfg)
	}})
	mustRegister(SessionOptimizerFunc{"multi-size", func(ctx context.Context, s *Session, cfg Config) (*Result, error) {
		if cfg.MultiSize <= 1 {
			cfg.MultiSize = 3
		}
		return core.Accelerated(ctx, s, cfg)
	}})
}
