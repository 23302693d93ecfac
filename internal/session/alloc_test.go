package session

import (
	"context"
	"testing"

	"statsize/internal/cell"
	"statsize/internal/design"
	"statsize/internal/netlist"
)

// warmBatchAllocLimit pins the steady-state allocation count of one
// warm serial WhatIfBatch iteration on c17 (6 candidates). The warm
// cost is per-batch bookkeeping (props/results slices, the batch
// wrapper) plus what genuinely escapes per candidate (the persisted
// sink distribution) — the arenas, overlay maps and delay
// distributions are all recycled.
// Measured ~40; the limit leaves headroom for runtime-version noise
// while still catching any return of the historical per-node
// allocation storm (hundreds of allocations per candidate).
const warmBatchAllocLimit = 80

// TestWhatIfBatchWarmAllocs is the alloc-regression pin for the arena +
// delay-cache machinery: a warm serial batch must stay within
// warmBatchAllocLimit allocations, where the pre-arena implementation
// spent thousands on a circuit this size.
func TestWhatIfBatchWarmAllocs(t *testing.T) {
	lib := cell.Default180nm()
	d, err := design.New(netlist.C17(lib), lib)
	if err != nil {
		t.Fatal(err)
	}
	// workers=1: AllocsPerRun pins GOMAXPROCS to 1, and a parallel batch
	// would also count goroutine/pool bookkeeping that is per-batch
	// noise, not steady-state kernel cost.
	s, err := Open(context.Background(), d, d.SuggestDT(500), pct(0.99), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ng, err := s.NumGates()
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]Candidate, 0, ng)
	for g := 0; g < ng; g++ {
		w, err := s.Width(netlist.GateID(g))
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, Candidate{Gate: netlist.GateID(g), Width: w + lib.DeltaW})
	}
	ctx := context.Background()
	batch := func() {
		if _, err := s.WhatIfBatch(ctx, cands); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the scratch arenas, map buckets and the delay memo cache.
	for i := 0; i < 3; i++ {
		batch()
	}
	allocs := testing.AllocsPerRun(50, batch)
	if allocs > warmBatchAllocLimit {
		t.Errorf("warm WhatIfBatch iteration allocates %.1f times, budget %d", allocs, warmBatchAllocLimit)
	}
}
