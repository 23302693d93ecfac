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
// A Pool owns one state per worker (an arena, a scratch set) and hands
// each callback the state of the worker running it, so a callback
// reaches its worker's state through a parameter rather than an index.
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
	return RunWith(ctx, make([]struct{}, Workers(workers)), n, func(_ struct{}, i int) error { return fn(i) })
}

// RunWith is Run on one worker per state, each handing its own state
// to fn: a one-shot Pool over states, narrowed to n workers when n is
// smaller.
func RunWith[S any](ctx context.Context, states []S, n int, fn func(s S, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	p := NewPool(states[:min(len(states), n)])
	defer p.Close()
	return p.Run(ctx, n, fn)
}

// Pool is a long-lived set of workers that process successive batches
// with a barrier after each, one worker per state it was built with.
// It exists for batch sequences whose steps are individually small —
// the forward SSTA pass runs one batch per topological level, often
// dozens of nodes across hundreds of levels, where spawning goroutines
// per level would rival the work itself. A Pool is not safe for
// concurrent Run calls; it serves one caller.
type Pool[S any] struct {
	states []S
	chans  []chan *batch[S]
}

// batch is one barrier-delimited unit of pool work: an index range, the
// function, and the shared progress/failure state.
type batch[S any] struct {
	ctx  context.Context
	n    int
	fn   func(s S, i int) error
	next atomic.Int64
	stop atomic.Bool
	wg   sync.WaitGroup

	mu     sync.Mutex
	firstI int // lowest failed index; n when no failure
	firstE error
}

// NewPool starts one worker per state, each owning its state for the
// pool's lifetime: every fn call a worker makes receives that worker's
// state, and no other worker's. A single state starts no goroutine —
// a serial pool runs batches on the caller's goroutine with states[0].
// states must not be empty. Close must be called to release the
// workers.
func NewPool[S any](states []S) *Pool[S] {
	if len(states) == 0 {
		panic("par: NewPool without worker states")
	}
	p := &Pool[S]{states: states}
	if len(states) == 1 {
		return p
	}
	p.chans = make([]chan *batch[S], len(states))
	for i := range p.chans {
		ch := make(chan *batch[S], 1)
		p.chans[i] = ch
		s := states[i]
		go func() {
			for b := range ch {
				b.work(s)
				b.wg.Done()
			}
		}()
	}
	return p
}

// Close stops the pool's workers. The pool must not be used afterwards.
func (p *Pool[S]) Close() {
	for _, ch := range p.chans {
		close(ch)
	}
}

// Run processes one batch through the pool and waits for the barrier:
// fn(s, i) for every i in [0, n), where s is the state of the worker
// that draws i, under the package-level Run's contract. Which worker
// draws which index is scheduling-dependent. A batch wakes only as many
// workers as it has indices, so fn sees only the first min(len(states),
// n) states: a narrow batch on a wide pool leaves the other workers
// asleep.
func (p *Pool[S]) Run(ctx context.Context, n int, fn func(s S, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if len(p.chans) == 0 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(p.states[0], i); err != nil {
				return err
			}
		}
		return nil
	}
	b := &batch[S]{ctx: ctx, n: n, fn: fn, firstI: n}
	chans := p.chans[:min(len(p.chans), n)]
	b.wg.Add(len(chans))
	for _, ch := range chans {
		ch <- b
	}
	b.wg.Wait()
	if b.firstE != nil {
		return b.firstE
	}
	return ctx.Err()
}

// work drains indices from the batch with worker state s until
// exhaustion, failure or cancellation.
func (b *batch[S]) work(s S) {
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
		if err := b.fn(s, i); err != nil {
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
