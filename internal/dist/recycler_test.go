package dist

import (
	"math/bits"
	"testing"
)

// TestRecyclerKeepCopiesScratchOnly: Keep holds an ordinary value by
// pointer, copies arena scratch and recycled values bit for bit, and
// the copies survive the arena's next Reset.
func TestRecyclerKeepCopiesScratchOnly(t *testing.T) {
	a, b := mustGauss(t, 0.01, 0.5, 0.05), mustGauss(t, 0.01, 0.6, 0.05)
	var r Recycler
	if r.Keep(a) != a {
		t.Fatal("Keep copied an immutable heap value")
	}
	r.Drop(a) // a no-op: a was never recycled
	if r.Held() != 0 {
		t.Fatalf("holding %d values after keeping only a heap value", r.Held())
	}
	ar := NewArena()
	v := ConvolveInto(ar, a, b)
	kept := r.Keep(v)
	if kept == v || !kept.IsScratch() {
		t.Fatal("Keep must copy a scratch view into recycled (scratch) storage")
	}
	again := r.Keep(kept)
	if again == kept {
		t.Fatal("Keep must copy a recycled value, not share it")
	}
	want := Convolve(a, b)
	ar.Reset()
	ConvolveInto(ar, b, b) // scribble over the arena
	bitIdentical(t, "kept survives reset", want, kept)
	bitIdentical(t, "kept of kept", want, again)
	if p := kept.Persist(); p.IsScratch() || p == kept {
		t.Fatal("Persist of a recycled value must return a heap copy")
	}
	if r.Held() != 2 {
		t.Fatalf("holding %d values, want 2", r.Held())
	}
	r.Drop(kept)
	r.Drop(again)
	if r.Held() != 0 {
		t.Fatalf("holding %d values after dropping all, want 0", r.Held())
	}
	defer func() {
		if recover() == nil {
			t.Error("a second Drop of one value did not panic")
		}
	}()
	r.Drop(kept)
}

// TestRecyclerReusesDroppedMemory: a dropped value's mass vector and
// header serve the next Keep of the same capacity class, whose
// contents are fully overwritten (no stale bins, no stale quantile
// cache).
func TestRecyclerReusesDroppedMemory(t *testing.T) {
	a, b := mustGauss(t, 0.01, 0.5, 0.05), mustGauss(t, 0.01, 0.6, 0.05)
	ar := NewArena()
	var r Recycler
	big := r.Keep(ConvolveInto(ar, a, b))
	big.Percentile(0.5) // fill the quantile cache
	n, first := big.NumBins(), &big.p[0]
	r.Drop(big)
	// The smallest bin count of big's capacity class: must reuse the
	// vector and must show neither old bins nor the old cache.
	m := 1<<(bits.Len(uint(n-1))-1) + 1
	small := &Dist{dt: 0.01, i0: 7, p: make([]float64, m), scratch: true}
	for k := range small.p {
		small.p[k] = 1 / float64(m)
	}
	kept := r.Keep(small)
	if kept != big || &kept.p[0] != first {
		t.Fatal("Keep did not reuse the dropped header and mass vector")
	}
	bitIdentical(t, "reused", small, kept)
	if got, want := kept.Percentile(1), small.MaxTime(); got != want {
		t.Fatalf("reused header answered a stale quantile: %v, want %v", got, want)
	}
}

// TestRecyclerSteadyStateAllocsZero: once the free lists cover the
// working set, Keep/Drop cycles allocate nothing; Release forgets every
// free list while held values stay valid.
func TestRecyclerSteadyStateAllocsZero(t *testing.T) {
	a, b := mustGauss(t, 0.01, 0.5, 0.05), mustGauss(t, 0.01, 0.6, 0.04)
	ar := NewArena()
	var r Recycler
	ar.Reset()
	c := ConvolveInto(ar, a, b)
	m := MaxIndepInto(ar, c, a)
	cycle := func() {
		x, y := r.Keep(c), r.Keep(m)
		r.Drop(x)
		z := r.Keep(c)
		r.Drop(y)
		r.Drop(z)
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("warm Keep/Drop cycle allocates %.1f times per run, want 0", allocs)
	}
	if r.FootprintBytes() == 0 {
		t.Fatal("warm recycler retains nothing")
	}
	held := r.Keep(c)
	r.Release()
	if r.FootprintBytes() != 0 {
		t.Errorf("recycler retains %d bytes after Release", r.FootprintBytes())
	}
	bitIdentical(t, "held across Release", Convolve(a, b), held)
	r.Drop(held)
	if r.Held() != 0 {
		t.Errorf("holding %d values, want 0", r.Held())
	}
}
