package main

import (
	"context"
	"sync"
	"time"
)

// openLoop issues ops on a fixed schedule regardless of completions:
// op i is due at start + i/rate. Ops are dealt round-robin to a fixed
// set of workers (op i goes to worker i mod workers), each issuing its
// ops in order, so one stalled op delays only the later ops of its own
// worker. Latency is timed from each op's due time, so the wait a stall
// imposes on later ops counts; late is how far behind schedule the op
// was issued.
type openLoop struct {
	start   time.Time
	rate    float64 // ops per second, all workers together
	total   int     // ops to issue
	workers int
	sleep   func(ctx context.Context, d time.Duration) // nil means a timer
	now     func() time.Time                           // nil means time.Now
}

// due is the scheduled send time of op i.
func (l *openLoop) due(i int) time.Time {
	return l.start.Add(time.Duration(float64(i) / l.rate * float64(time.Second)))
}

// run calls do for every op in schedule order per worker and reports
// each op's latency (from due time to completion) and lateness (from due
// time to issue) to rec. It returns when every worker has finished or
// ctx ends; ops not yet issued by then are skipped.
func (l *openLoop) run(ctx context.Context, do func(ctx context.Context, worker, i int) (requests int, err error), rec func(lat, late time.Duration, requests int, err error)) {
	now := l.now
	if now == nil {
		now = time.Now
	}
	sleep := l.sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < l.total; i += l.workers {
				due := l.due(i)
				if d := due.Sub(now()); d > 0 {
					sleep(ctx, d)
				}
				if ctx.Err() != nil {
					return
				}
				issued := now()
				n, err := do(ctx, w, i)
				rec(now().Sub(due), max(0, issued.Sub(due)), n, err)
			}
		}(w)
	}
	wg.Wait()
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
