package main

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"statsize"
	"statsize/client"
	"statsize/internal/dist"
	"statsize/internal/server"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  int
		full bool
	}{
		{5000, 99, true}, {1000, 99, true}, {999, 95, true}, {200, 95, true},
		{199, 90, true}, {100, 90, true}, {99, 80, true}, {50, 80, true},
		{49, 80, false}, {0, 80, false},
	} {
		pct, ok := tailPercent(c.n)
		if pct != c.pct || ok != c.full {
			t.Errorf("tailPercent(%d) = p%d,%v; want p%d,%v", c.n, pct, ok, c.pct, c.full)
		}
		if ok {
			beyond := c.n - int(math.Ceil(float64(pct)/100*float64(c.n)))
			if beyond < minBeyond {
				t.Errorf("n=%d p%d leaves %d samples beyond", c.n, pct, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30}, // overlaps 2
		{ID: 2, Parent: 0, Start: 20, End: 50},
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent's end
		{ID: 4, Parent: 1, Start: 12, End: 18},  // nested in 1
		{ID: 5, Parent: 1, Start: 14, End: 16},  // nested in 1, inside 4
		{ID: 6, Parent: -1, Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: 50, 1: 14, 2: 30, 3: 30, 4: 6, 5: 2, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	names, layers := aggregate([]span{
		{ID: 0, Parent: -1, Name: "session.whatif", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "dist.convolve", Start: 2, End: 6},
	})
	if names["session.whatif"].SelfMs != 6e-6 || layers["dist"].SelfMs != 4e-6 {
		t.Errorf("aggregate self ms: %+v %+v", names, layers)
	}
}

// fakeClock is a virtual clock for the open-loop tests: sleeping and
// working advance it instead of waiting.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopLatenessAccounting(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	const ms = time.Millisecond
	work := []time.Duration{50 * ms, 350 * ms, 50 * ms, 50 * ms, 50 * ms} // op 1 stalls
	loop := &openLoop{
		start: clk.Now(), rate: 10, total: len(work), workers: 1,
		now:   clk.Now,
		sleep: func(_ context.Context, d time.Duration) { clk.advance(d) },
	}
	var lat, late []time.Duration
	loop.run(context.Background(), func(_ context.Context, _, i int) (int, error) {
		clk.advance(work[i])
		return 1, nil
	}, func(l, lt time.Duration, _ int, _ error) {
		lat = append(lat, l)
		late = append(late, lt)
	})
	// Op i is due at 100·i ms. The stall makes ops 2-4 start late, and
	// their latency counts from the due time, not from the late start.
	wantLat := []time.Duration{50 * ms, 350 * ms, 300 * ms, 250 * ms, 200 * ms}
	wantLate := []time.Duration{0, 0, 250 * ms, 200 * ms, 150 * ms}
	for i := range work {
		if lat[i] != wantLat[i] || late[i] != wantLate[i] {
			t.Errorf("op %d: latency %v late %v, want %v and %v", i, lat[i], late[i], wantLat[i], wantLate[i])
		}
	}
}

func TestOpenLoopWorkersKeepTheirOwnSchedule(t *testing.T) {
	loop := &openLoop{start: time.Now(), rate: 1e6, total: 10, workers: 2}
	var mu sync.Mutex
	seen := map[int][]int{}
	loop.run(context.Background(), func(_ context.Context, w, i int) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		seen[w] = append(seen[w], i)
		return 1, nil
	}, func(time.Duration, time.Duration, int, error) {})
	for w, ops := range seen {
		for k, i := range ops {
			if i != w+2*k {
				t.Fatalf("worker %d issued %v, want every second op from %d in order", w, ops, w)
			}
		}
	}
}

func TestRecorderDropsUncommittedOps(t *testing.T) {
	rec := newRecorder()
	rec.op(time.Millisecond, 1, 0, nil)
	rec.op(2*time.Millisecond, 3, 0, context.Canceled)
	rec.mark()
	rec.op(time.Hour, 1, 0, nil) // cut short: never committed
	s := rec.summary()
	if s.Ops != 4 || s.Failed != 3 || s.Samples != 2 {
		t.Fatalf("summary %+v, want 4 ops, 3 failed, 2 samples", s)
	}
	if !math.IsInf(s.Tail, 1) {
		t.Errorf("a failed op must count as missing every latency limit; tail = %v", s.Tail)
	}
}

func TestCheckPickRejectsWrongGate(t *testing.T) {
	batch := []statsize.WhatIfResult{{Gate: 3, Delta: 0.1}, {Gate: 5, Delta: 0.4}, {Gate: 2, Delta: 0.4}}
	ok := []statsize.IterRecord{{Gates: []statsize.GateID{2}}}
	if err := checkPick(batch, ok); err != nil {
		t.Fatalf("tie to the lowest gate rejected: %v", err)
	}
	bad := []statsize.IterRecord{{Gates: []statsize.GateID{5}}}
	if err := checkPick(batch, bad); err == nil {
		t.Fatal("a pick other than the argmax was accepted")
	}
}

func TestCheckFinalObjectivesRejectsOneULP(t *testing.T) {
	cs := []cycle{{m: member{"c1908", 3}, res: &statsize.Result{FinalObjective: 4.25}}}
	if err := checkFinalObjectives(cs, []float64{4.25}); err != nil {
		t.Fatal(err)
	}
	if err := checkFinalObjectives(cs, []float64{math.Nextafter(4.25, 5)}); err == nil {
		t.Fatal("a final objective one ulp off was accepted")
	}
}

func TestCheckRestoresRejectsDrift(t *testing.T) {
	if err := checkRestores([]restore{{want: 7, got: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := checkRestores([]restore{{want: 7, got: 7}, {want: 7, got: math.Nextafter(7, 0)}}); err == nil {
		t.Fatal("a rollback that missed the checkpoint was accepted")
	}
}

func TestSameDistRejectsCorruptedSink(t *testing.T) {
	gauss := func(sigma float64) *dist.Dist {
		d, err := dist.TruncGauss(0.01, 1, sigma, 3)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if err := sameDist(gauss(0.1), gauss(0.1)); err != nil {
		t.Fatal(err)
	}
	if err := sameDist(gauss(0.1), gauss(0.1000001)); err == nil {
		t.Fatal("a different sink distribution was accepted")
	}
	if err := sameDist(gauss(0.1), dist.Point(0.01, 1)); err == nil {
		t.Fatal("a sink on another grid was accepted")
	}
}

func TestCheckStatsRejectsMiscount(t *testing.T) {
	obs := observed{whatifs: 40, resizes: 3, checkpoints: 3, rollbacks: 3}
	st := &client.StatsResponse{Engine: statsize.EngineStats{
		SessionsOpened: 4, WhatIfsServed: 40, ResizesCommitted: 3, Checkpoints: 3, Rollbacks: 3,
	}}
	if err := checkStats(st, obs, 4); err != nil {
		t.Fatal(err)
	}
	st.Engine.WhatIfsServed++
	if err := checkStats(st, obs, 4); err == nil || !strings.Contains(err.Error(), "whatifs_served") {
		t.Fatalf("a miscounted /stats was accepted: %v", err)
	}
}

func TestCheckTwinRejectsDifferentAnswer(t *testing.T) {
	smp := []whatifSample{{session: 1, gate: 7, width: 1.5, answer: server.WhatIfResultWire{Gate: 7, Objective: 3.5, Delta: 0.25, NodesVisited: 40}}}
	twin := []statsize.WhatIfResult{{Gate: 7, Objective: 3.5, Delta: 0.25, NodesVisited: 40}}
	if err := checkTwin(smp, twin); err != nil {
		t.Fatal(err)
	}
	twin[0].Objective = math.Nextafter(3.5, 4)
	if err := checkTwin(smp, twin); err == nil {
		t.Fatal("an HTTP answer differing from the twin was accepted")
	}
	if err := checkTwin(nil, nil); err == nil {
		t.Fatal("a run with no sampled answer was accepted")
	}
}
