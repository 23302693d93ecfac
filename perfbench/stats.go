package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tailPercents are the candidate tail percentiles, highest first.
var tailPercents = []int{99, 95, 90, 80}

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported.
const minBeyond = 10

// tailPercent picks the highest of p99/p95/p90/p80 that leaves at
// least minBeyond of n samples beyond it. With fewer than 50 samples no
// candidate qualifies; it then returns 80 and ok=false, so the report
// can say the tail is under-sampled. Integer arithmetic keeps the
// thresholds exact (100 samples leave exactly 10 beyond p90).
func tailPercent(n int) (pct int, ok bool) {
	for _, p := range tailPercents {
		if n*(100-p) >= minBeyond*100 {
			return p, true
		}
	}
	return tailPercents[len(tailPercents)-1], false
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted, or NaN when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// median of an unsorted sample (NaN when empty); the input is not
// modified.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	return percentile(s, 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// recorder collects the timed ops of one run. Ops are held pending
// until mark commits them, so a workload that counts only whole units
// of work (optimize counts whole rounds) can drop a unit the deadline
// cut short, together with its time and allocations.
type recorder struct {
	mu sync.Mutex

	start       time.Time
	startAllocs uint64

	pending, done tally
	markAt        time.Time
	markAllocs    uint64
}

// tally counts ops and failures (in requests) and keeps one latency
// sample per op in milliseconds; a failed op's sample is +Inf, so a
// failure counts as missing every latency limit.
type tally struct {
	lat         []float64
	gen         []float64 // per-op loadgen lateness (ms)
	ops, failed int
}

func (t *tally) add(o tally) {
	t.lat = append(t.lat, o.lat...)
	t.gen = append(t.gen, o.gen...)
	t.ops += o.ops
	t.failed += o.failed
}

func newRecorder() *recorder {
	now := time.Now()
	a := heapAllocBytes()
	return &recorder{start: now, startAllocs: a, markAt: now, markAllocs: a}
}

// op records one timed op that stands for n requests; err marks all of
// them failed. late is how long after its due time the op was issued.
func (r *recorder) op(lat time.Duration, n int, late time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := float64(lat) / 1e6
	if err != nil {
		ms = math.Inf(1)
		r.pending.failed += n
	}
	r.pending.lat = append(r.pending.lat, ms)
	r.pending.gen = append(r.pending.gen, float64(late)/1e6)
	r.pending.ops += n
}

// mark commits the pending ops and makes now the end of the measured
// interval.
func (r *recorder) mark() {
	a := heapAllocBytes()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done.add(r.pending)
	r.pending = tally{}
	r.markAt = time.Now()
	r.markAllocs = a
}

// summary is what a run's committed ops amount to.
type summary struct {
	Elapsed    time.Duration
	Ops        int
	Failed     int
	Samples    int
	P50        float64
	TailPct    int
	TailOK     bool
	Tail       float64
	AllocBytes uint64
	LateP99    float64
}

func (r *recorder) summary() summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	lat := sortedCopy(r.done.lat)
	pct, ok := tailPercent(len(lat))
	return summary{
		Elapsed:    r.markAt.Sub(r.start),
		Ops:        r.done.ops,
		Failed:     r.done.failed,
		Samples:    len(lat),
		P50:        percentile(lat, 50),
		TailPct:    pct,
		TailOK:     ok,
		Tail:       percentile(lat, float64(pct)),
		AllocBytes: r.markAllocs - r.startAllocs,
		LateP99:    percentile(sortedCopy(r.done.gen), 99),
	}
}

// heapAllocBytes is the cumulative count of heap bytes allocated by the
// process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch samples the live heap until stopped and reports its peak
// together with the GC pause time accumulated meanwhile.
type heapWatch struct {
	stop   chan struct{}
	done   chan struct{}
	peak   uint64 // written by the sampler only; read after done closes
	pause0 uint64
}

func watchHeap() *heapWatch {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{}), pause0: ms.PauseTotalNs}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			w.peak = max(w.peak, s[0].Value.Uint64())
			select {
			case <-t.C:
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

// finish stops the sampler, waits for it, and returns the peak live
// heap in bytes and the GC pause total in nanoseconds.
func (w *heapWatch) finish() (peak, pauseNs uint64) {
	close(w.stop)
	<-w.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return w.peak, ms.PauseTotalNs - w.pause0
}
