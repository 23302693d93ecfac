// Package par provides the bounded fan-out primitives shared by the
// parallel evaluation paths: the level-parallel SSTA forward pass, the
// session's what-if batches and the optimizers' candidate sweeps.
//
// Determinism is the design constraint, not raw throughput: callers
// index results by input position and never observe completion order,
// so running the same work across any number of workers produces
// bit-identical output. The helpers only distribute *pure* work — the
// mutation-free evaluation contract documented in DESIGN.md is what
// makes that distribution sound.
//
// Locked guards the shared mutable state those paths run against: its
// value is reachable only under its mutex, through a scoped callback.
// Session, Engine and the daemon's session pool keep their state in
// one.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism setting: non-positive means "one
// worker per logical CPU" (the engine's WithParallelism default).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run invokes fn(i) for every i in [0, n) across at most workers
// goroutines and waits for all of them. Each fn call must write its
// result to a caller-owned slot indexed by i; slots are never shared
// between indices, so no synchronization is needed beyond the
// happens-before edge Run itself provides on return.
//
// Cancellation and failure: once the context dies or any fn returns an
// error, remaining indices are skipped (best effort — calls already in
// flight finish). The returned error is deterministic given a
// deterministic failure: the lowest-index fn error wins; a pure
// context cancellation returns ctx.Err().
//
// workers <= 1 (or n <= 1) degenerates to a serial loop on the calling
// goroutine, the reference the parallel paths are tested bit-identical
// against. For a sequence of dependent batches (the SSTA levels), use a
// Pool, which amortizes worker startup across batches.
func Run(ctx context.Context, workers, n int, fn func(i int) error) error {
	return RunIndexed(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// RunIndexed is Run with the worker ordinal (in [0, workers)) passed to
// fn alongside the index — the hook per-worker scratch state (arenas,
// reusable maps) keys off. Which ordinal processes which index is
// scheduling-dependent; everything else about the contract matches Run,
// and the serial degenerate case always reports ordinal 0.
func RunIndexed(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	p := NewPool(workers)
	defer p.Close()
	return p.RunIndexed(ctx, n, fn)
}

// Pool is a long-lived set of workers that process successive batches
// with a barrier after each. It exists for batch sequences whose steps
// are individually small — the forward SSTA pass runs one batch per
// topological level, often dozens of nodes across hundreds of levels,
// where spawning goroutines per level would rival the work itself.
// A Pool is not safe for concurrent Run calls; it serves one caller.
type Pool struct {
	workers int
	chans   []chan *batch
}

// batch is one barrier-delimited unit of pool work: an index range, the
// function, and the shared progress/failure state.
type batch struct {
	ctx  context.Context
	n    int
	fn   func(worker, i int) error
	next atomic.Int64
	stop atomic.Bool
	wg   sync.WaitGroup

	mu     sync.Mutex
	firstI int // lowest failed index; n when no failure
	firstE error
}

// NewPool starts workers goroutines (none when the normalized count is
// 1 — a serial pool runs batches on the caller's goroutine). Close must
// be called to release the workers.
func NewPool(workers int) *Pool {
	p := &Pool{workers: Workers(workers)}
	if p.workers <= 1 {
		return p
	}
	p.chans = make([]chan *batch, p.workers)
	for i := range p.chans {
		ch := make(chan *batch, 1)
		p.chans[i] = ch
		worker := i
		go func() {
			for b := range ch {
				b.work(worker)
				b.wg.Done()
			}
		}()
	}
	return p
}

// NumWorkers returns the pool's normalized worker count — the bound on
// the worker ordinals RunIndexed reports.
func (p *Pool) NumWorkers() int { return p.workers }

// Close stops the pool's workers. The pool must not be used afterwards.
func (p *Pool) Close() {
	for _, ch := range p.chans {
		close(ch)
	}
}

// Run processes one batch through the pool and waits for the barrier:
// fn(i) for every i in [0, n), same contract as the package-level Run.
func (p *Pool) Run(ctx context.Context, n int, fn func(i int) error) error {
	return p.RunIndexed(ctx, n, func(_, i int) error { return fn(i) })
}

// RunIndexed is Run with the worker ordinal passed to fn (see the
// package-level RunIndexed).
func (p *Pool) RunIndexed(ctx context.Context, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	b := &batch{ctx: ctx, n: n, fn: fn, firstI: n}
	b.wg.Add(len(p.chans))
	for _, ch := range p.chans {
		ch <- b
	}
	b.wg.Wait()
	if b.firstE != nil {
		return b.firstE
	}
	return ctx.Err()
}

// work drains indices from the batch until exhaustion, failure or
// cancellation.
func (b *batch) work(worker int) {
	for {
		if b.stop.Load() {
			return
		}
		if err := b.ctx.Err(); err != nil {
			b.stop.Store(true)
			return
		}
		i := int(b.next.Add(1)) - 1
		if i >= b.n {
			return
		}
		if err := b.fn(worker, i); err != nil {
			b.mu.Lock()
			if i < b.firstI {
				b.firstI, b.firstE = i, err
			}
			b.mu.Unlock()
			b.stop.Store(true)
			return
		}
	}
}
