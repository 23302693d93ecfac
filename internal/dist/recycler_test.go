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
	if r.Keep(a).Dist() != a {
		t.Fatal("Keep copied an immutable heap value")
	}
	r.Drop(r.Keep(a)) // a no-op: a was never recycled
	r.Drop(Kept{})    // a no-op: the zero Kept holds nothing
	if r.Held() != 0 {
		t.Fatalf("holding %d values after keeping only a heap value", r.Held())
	}
	ar := NewArena()
	v := ConvolveInto(ar, a, b)
	k := r.Keep(v)
	kept := k.Dist()
	if kept == v || !kept.scratch {
		t.Fatal("Keep must copy a scratch view into recycled (scratch) storage")
	}
	k2 := r.Keep(kept)
	again := k2.Dist()
	if again == kept {
		t.Fatal("Keep must copy a recycled value, not share it")
	}
	want := Convolve(a, b)
	ar.Reset()
	ConvolveInto(ar, b, b) // scribble over the arena
	bitIdentical(t, "kept survives reset", want, kept)
	bitIdentical(t, "kept of kept", want, again)
	if p := kept.Persist().Dist(); p.scratch || p == kept {
		t.Fatal("Persist of a recycled value must return a heap copy")
	}
	if r.Held() != 2 {
		t.Fatalf("holding %d values, want 2", r.Held())
	}
	r.Drop(k)
	r.Drop(k2)
	if r.Held() != 0 {
		t.Fatalf("holding %d values after dropping all, want 0", r.Held())
	}
	defer func() {
		if recover() == nil {
			t.Error("a second Drop of one value did not panic")
		}
	}()
	r.Drop(k)
}

// TestRecyclerReusesDroppedMemory: a dropped value's mass vector and
// header serve the next Keep of the same capacity class, whose
// contents are fully overwritten (no stale bins), and a quantile query
// on a recycled value leaves no cache for the next holder to read.
func TestRecyclerReusesDroppedMemory(t *testing.T) {
	a, b := mustGauss(t, 0.01, 0.5, 0.05), mustGauss(t, 0.01, 0.6, 0.05)
	ar := NewArena()
	var r Recycler
	kb := r.Keep(ConvolveInto(ar, a, b))
	big := kb.Dist()
	big.Percentile(0.5)
	if big.cum.Load() != nil {
		t.Fatal("a quantile query cached cumulative sums on a recycled value")
	}
	n, first := big.NumBins(), &big.p[0]
	r.Drop(kb)
	// The smallest bin count of big's capacity class: must reuse the
	// vector and must show no old bins.
	m := 1<<(bits.Len(uint(n-1))-1) + 1
	small := &Dist{dt: 0.01, i0: 7, p: make([]float64, m), scratch: true}
	for k := range small.p {
		small.p[k] = 1 / float64(m)
	}
	kept := r.Keep(small).Dist()
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
	bitIdentical(t, "held across Release", Convolve(a, b), held.Dist())
	r.Drop(held)
	if r.Held() != 0 {
		t.Errorf("holding %d values, want 0", r.Held())
	}
}
