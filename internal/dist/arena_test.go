package dist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// randDist builds a random-support distribution for the equivalence
// sweeps: a renormalized random mass vector at a random offset.
func randDist(rng *rand.Rand, dt float64, maxBins int) *Dist {
	n := 1 + rng.Intn(maxBins)
	p := make([]float64, n)
	total := 0.0
	for i := range p {
		// Leave occasional interior zeros so trim and the skip-zero fast
		// paths get exercised.
		if rng.Intn(5) == 0 {
			continue
		}
		p[i] = rng.Float64()
		total += p[i]
	}
	if total == 0 {
		p[0], total = 1, 1
	}
	for i := range p {
		p[i] /= total
	}
	return trim(dt, rng.Intn(41)-20, p)
}

// bitIdentical demands exact equality of grid, support and every mass.
func bitIdentical(t *testing.T, label string, want, got *Dist) {
	t.Helper()
	if want.DT() != got.DT() || want.I0() != got.I0() || want.NumBins() != got.NumBins() {
		t.Fatalf("%s: header differs: want (dt=%v i0=%d bins=%d), got (dt=%v i0=%d bins=%d)",
			label, want.DT(), want.I0(), want.NumBins(), got.DT(), got.I0(), got.NumBins())
	}
	for k := 0; k < want.NumBins(); k++ {
		if want.MassAt(k) != got.MassAt(k) {
			t.Fatalf("%s: mass at bin %d differs: want %x, got %x", label, k, want.MassAt(k), got.MassAt(k))
		}
	}
}

// TestIntoKernelsBitIdentical sweeps randomized operand pairs through
// every Into kernel and demands bit-identical output versus the
// allocating wrappers — the contract that lets the SSTA hot paths adopt
// arenas without moving a single golden trace — and versus the
// reference loops the blocked kernels replaced.
func TestIntoKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ar := NewArena()
	for trial := 0; trial < 300; trial++ {
		a := randDist(rng, 0.01, 60)
		b := randDist(rng, 0.01, 60)
		checkKernelsBitExact(t, fmt.Sprintf("trial %d", trial), ar, a, b)
		ar.Reset()
		bitIdentical(t, "Convolve", Convolve(a, b), ConvolveInto(ar, a, b))
		bitIdentical(t, "MaxIndep", MaxIndep(a, b), MaxIndepInto(ar, a, b))
		bitIdentical(t, "MinIndep", MinIndep(a, b), MinIndepInto(ar, a, b))
		bitIdentical(t, "SubConvolve", SubConvolve(a, b), SubConvolveInto(ar, a, b))
		bitIdentical(t, "Neg", a.Neg(), NegInto(ar, a))
	}
}

// TestIntoKernelsChainReuse chains kernels through one arena the way
// computeArrival does — convolve per fanin, fold with max — and checks
// the persisted result against the allocating chain, across several
// resets of the same arena (stale scratch from earlier rounds must
// never leak into later results).
func TestIntoKernelsChainReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ar := NewArena()
	for round := 0; round < 50; round++ {
		fanins := 1 + rng.Intn(4)
		arrs := make([]*Dist, fanins)
		delays := make([]*Dist, fanins)
		for i := range arrs {
			arrs[i] = randDist(rng, 0.01, 80)
			delays[i] = randDist(rng, 0.01, 40)
		}
		var want *Dist
		for i := range arrs {
			term := Convolve(arrs[i], delays[i])
			if want == nil {
				want = term
			} else {
				want = MaxIndep(want, term)
			}
		}
		ar.Reset()
		var acc *Dist
		for i := range arrs {
			term := ConvolveInto(ar, arrs[i], delays[i])
			if acc == nil {
				acc = term
			} else {
				acc = MaxIndepInto(ar, acc, term)
			}
		}
		got := acc.Persist().Dist()
		if got.scratch {
			t.Fatal("Persist returned a scratch view")
		}
		bitIdentical(t, fmt.Sprintf("round %d", round), want, got)
	}
}

// TestPersistPassthrough: Persist on an ordinary immutable Dist is the
// identity (no copy), and on a scratch view yields an independent copy
// that survives a Reset overwriting the arena.
func TestPersistPassthrough(t *testing.T) {
	a, b := mustGauss(t, 0.01, 0.5, 0.05), mustGauss(t, 0.01, 0.6, 0.05)
	if a.Persist().Dist() != a {
		t.Error("Persist copied a heap distribution")
	}
	ar := NewArena()
	v := ConvolveInto(ar, a, b)
	if !v.scratch {
		t.Fatal("arena kernel returned a non-scratch view")
	}
	kept := v.Persist().Dist()
	want := Convolve(a, b)
	ar.Reset()
	// Scribble over the arena; the persisted copy must be unaffected.
	for i := 0; i < 4; i++ {
		ConvolveInto(ar, b, b)
	}
	bitIdentical(t, "persisted survives reset", want, kept)
}

// TestArenaSteadyStateFootprint: after a warm-up round, repeated
// Reset+work cycles must not grow the arena.
func TestArenaSteadyStateFootprint(t *testing.T) {
	a, b := mustGauss(t, 0.001, 0.5, 0.05), mustGauss(t, 0.001, 0.6, 0.04)
	ar := NewArena()
	work := func() {
		ar.Reset()
		c := ConvolveInto(ar, a, b)
		m := MaxIndepInto(ar, c, a)
		MinIndepInto(ar, m, b)
		SubConvolveInto(ar, m, a)
	}
	work()
	warm := ar.FootprintBytes()
	if warm == 0 {
		t.Fatal("arena retained nothing after work")
	}
	for i := 0; i < 100; i++ {
		work()
	}
	if got := ar.FootprintBytes(); got != warm {
		t.Errorf("arena grew in steady state: %d bytes warm, %d after 100 cycles", warm, got)
	}
}

func mustGauss(tb testing.TB, dt, mean, sigma float64) *Dist {
	tb.Helper()
	d, err := TruncGauss(dt, mean, sigma, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestIntoKernelAllocsZero pins the zero-allocation contract of the
// warm into-buffer kernels: once the arena has grown to the working
// set, a full kernel cycle performs no heap allocations at all.
func TestIntoKernelAllocsZero(t *testing.T) {
	a, b := mustGauss(t, 0.001, 0.5, 0.05), mustGauss(t, 0.001, 0.6, 0.04)
	ar := NewArena()
	cycle := func() {
		ar.Reset()
		c := ConvolveInto(ar, a, b)
		m := MaxIndepInto(ar, c, a)
		MinIndepInto(ar, m, b)
		SubConvolveInto(ar, c, b)
		NegInto(ar, c)
	}
	cycle() // warm the slabs and header chunks
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("warm into-kernel cycle allocates %.1f times per run, want 0", allocs)
	}
}

// TestAllocatingKernelAllocs pins the allocation count of the
// nil-arena kernels (the allocating wrappers every non-hot path uses):
// one mass vector and one header per result, and SubConvolve's
// negation on top. Skipping the arena's clear or blocking the loops
// must not add any.
func TestAllocatingKernelAllocs(t *testing.T) {
	a, b := mustGauss(t, 0.001, 0.5, 0.05), mustGauss(t, 0.001, 0.6, 0.04)
	for _, k := range []struct {
		name string
		run  func()
		want float64
	}{
		{"Convolve", func() { Convolve(a, b) }, 2},
		{"MaxIndep", func() { MaxIndep(a, b) }, 2},
		{"MinIndep", func() { MinIndep(a, b) }, 2},
		{"SubConvolve", func() { SubConvolve(a, b) }, 4},
	} {
		if got := testing.AllocsPerRun(100, k.run); got != k.want {
			t.Errorf("%s allocates %.1f times per call, want %.0f", k.name, got, k.want)
		}
	}
}

// TestNegEdgeCases is the table-driven pin for the Neg invariants: the
// empty-support panic and the exact index arithmetic on minimal
// supports (the already-trimmed single-bin case among them).
func TestNegEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		d         *Dist
		wantPanic string
		wantI0    int
		wantMass  []float64
	}{
		{
			name:      "empty support panics",
			d:         &Dist{dt: 0.1, i0: 3, p: nil},
			wantPanic: "empty distribution",
		},
		{
			name:      "zero-length slice panics",
			d:         &Dist{dt: 0.1, i0: -2, p: []float64{}},
			wantPanic: "empty distribution",
		},
		{
			name:     "single bin at origin",
			d:        trim(0.1, 0, []float64{1}),
			wantI0:   0,
			wantMass: []float64{1},
		},
		{
			name:     "single bin off origin",
			d:        trim(0.1, 7, []float64{1}),
			wantI0:   -7,
			wantMass: []float64{1},
		},
		{
			name:     "two bins negative offset",
			d:        trim(0.1, -3, []float64{0.25, 0.75}),
			wantI0:   2,
			wantMass: []float64{0.75, 0.25},
		},
	}
	for _, tc := range cases {
		for _, mode := range []string{"alloc", "arena"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				var ar *Arena
				if mode == "arena" {
					ar = NewArena()
				}
				if tc.wantPanic != "" {
					defer func() {
						r := recover()
						if r == nil {
							t.Fatal("Neg accepted an empty distribution")
						}
						if msg := fmt.Sprint(r); !strings.Contains(msg, tc.wantPanic) {
							t.Errorf("panic %q does not mention %q", msg, tc.wantPanic)
						}
					}()
					NegInto(ar, tc.d)
					return
				}
				got := NegInto(ar, tc.d)
				if got.I0() != tc.wantI0 || got.NumBins() != len(tc.wantMass) {
					t.Fatalf("Neg support: i0=%d bins=%d, want i0=%d bins=%d",
						got.I0(), got.NumBins(), tc.wantI0, len(tc.wantMass))
				}
				for k, m := range tc.wantMass {
					if got.MassAt(k) != m {
						t.Errorf("mass[%d] = %v, want %v", k, got.MassAt(k), m)
					}
				}
			})
		}
	}
}

// TestTrimAllZeroSpans is the table-driven pin for trim called with
// all-zero prefixes/suffixes spanning part or all of the slice: partial
// spans trim away exactly, a whole-slice zero span panics (the PR 3
// invariant), in both the allocating and arena forms.
func TestTrimAllZeroSpans(t *testing.T) {
	cases := []struct {
		name      string
		p         []float64
		i0        int
		wantPanic bool
		wantI0    int
		wantBins  int
	}{
		{name: "no padding", p: []float64{0.5, 0.5}, i0: 4, wantI0: 4, wantBins: 2},
		{name: "zero prefix", p: []float64{0, 0, 1}, i0: 0, wantI0: 2, wantBins: 1},
		{name: "zero suffix", p: []float64{1, 0, 0}, i0: -5, wantI0: -5, wantBins: 1},
		{name: "both ends", p: []float64{0, 0.25, 0.75, 0}, i0: 2, wantI0: 3, wantBins: 2},
		{name: "interior zeros survive", p: []float64{0, 0.5, 0, 0.5, 0}, i0: 0, wantI0: 1, wantBins: 3},
		{name: "all zero panics", p: []float64{0, 0, 0}, wantPanic: true},
		{name: "single zero panics", p: []float64{0}, wantPanic: true},
		{name: "empty slice panics", p: []float64{}, wantPanic: true},
	}
	for _, tc := range cases {
		for _, mode := range []string{"alloc", "arena"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				var ar *Arena
				if mode == "arena" {
					ar = NewArena()
				}
				if tc.wantPanic {
					defer func() {
						if recover() == nil {
							t.Fatal("trim accepted an all-zero span covering the whole slice")
						}
					}()
				}
				got := trimInto(ar, 0.1, tc.i0, append([]float64(nil), tc.p...))
				if tc.wantPanic {
					t.Fatal("unreachable: trim should have panicked")
				}
				if got.I0() != tc.wantI0 || got.NumBins() != tc.wantBins {
					t.Errorf("trim support: i0=%d bins=%d, want i0=%d bins=%d",
						got.I0(), got.NumBins(), tc.wantI0, tc.wantBins)
				}
			})
		}
	}
}

// TestPercentileCDFMatchLinearScan pins the quantile queries to plain
// linear scans, bit for bit, across randomized distributions and query
// points, on an immutable value and on a scratch view of it.
func TestPercentileCDFMatchLinearScan(t *testing.T) {
	// Reference implementations: one-bin-at-a-time linear scans.
	refPercentile := func(d *Dist, p float64) float64 {
		cum := 0.0
		for k := 0; k < d.NumBins(); k++ {
			cum += d.MassAt(k)
			if cum >= p-probEps {
				return float64(d.I0()+k) * d.DT()
			}
		}
		return d.MaxTime()
	}
	refCDF := func(d *Dist, t float64) float64 {
		cum := 0.0
		for k := 0; k < d.NumBins(); k++ {
			if float64(d.I0()+k)*d.DT() > t+probEps*d.DT() {
				break
			}
			cum += d.MassAt(k)
		}
		return cum
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		imm := randDist(rng, 0.01, 120)
		view := &Dist{dt: imm.dt, i0: imm.i0, p: imm.p, scratch: true}
		for _, d := range []*Dist{imm, view} {
			for _, p := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				if got, want := d.Percentile(p), refPercentile(d, p); got != want {
					t.Fatalf("scratch=%v: Percentile(%v) = %x, linear scan %x", d.scratch, p, got, want)
				}
			}
			for q := 0; q < 12; q++ {
				x := d.MinTime() + (d.MaxTime()-d.MinTime()+0.04)*(rng.Float64()*1.2-0.1)
				if got, want := d.CDF(x), refCDF(d, x); got != want {
					t.Fatalf("scratch=%v: CDF(%v) = %x, linear scan %x", d.scratch, x, got, want)
				}
			}
			// Boundary queries exactly on and between grid points.
			if got, want := d.CDF(d.MinTime()), refCDF(d, d.MinTime()); got != want {
				t.Fatalf("scratch=%v: CDF(min) = %x, linear scan %x", d.scratch, got, want)
			}
			if got, want := d.CDF(d.MaxTime()), refCDF(d, d.MaxTime()); got != want {
				t.Fatalf("scratch=%v: CDF(max) = %x, linear scan %x", d.scratch, got, want)
			}
		}
	}
}

// TestScratchQuantileAllocsZero pins that quantile queries on an arena
// view or a recycled value allocate nothing: they scan the running
// sum. Each cycle queries a fresh view or value, as a finished front's
// sink is queried once.
func TestScratchQuantileAllocsZero(t *testing.T) {
	a, b := mustGauss(t, 0.01, 0.5, 0.05), mustGauss(t, 0.01, 0.6, 0.04)
	ar, tmp := NewArena(), NewArena()
	var r Recycler
	view := MaxIndepInto(ar, ConvolveInto(ar, a, b), a)
	mid := (view.MinTime() + view.MaxTime()) / 2
	query := func(d *Dist) {
		d.Percentile(0.99)
		d.CDF(mid)
	}
	for _, tc := range []struct {
		name  string
		cycle func()
	}{
		{"arena view", func() { tmp.Reset(); query(tmp.Copy(view)) }},
		{"recycled value", func() { k := r.Keep(view); query(k.Dist()); r.Drop(k) }},
	} {
		if allocs := testing.AllocsPerRun(50, tc.cycle); allocs != 0 {
			t.Errorf("%s: quantile queries allocate %.1f times per cycle, want 0", tc.name, allocs)
		}
	}
}

// TestKeeperPersist: keeper-compacted distributions are bit-identical
// immutable heap values that survive arena resets, and already-heap
// values pass through untouched.
func TestKeeperPersist(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ar, kp := NewArena(), NewKeeper()
	type kept struct{ want, got *Dist }
	var all []kept
	for i := 0; i < 200; i++ {
		a := randDist(rng, 0.01, 90)
		b := randDist(rng, 0.01, 70)
		ar.Reset()
		v := ConvolveInto(ar, a, b)
		g := kp.Persist(v).Dist()
		if g.scratch {
			t.Fatal("keeper returned a scratch view")
		}
		all = append(all, kept{want: Convolve(a, b), got: g})
	}
	// Every persisted value must still match after the arena memory they
	// came from has been overwritten many times.
	for i, k := range all {
		bitIdentical(t, fmt.Sprintf("kept %d", i), k.want, k.got)
	}
	h := mustGauss(t, 0.01, 0.3, 0.02)
	if kp.Persist(h).Dist() != h {
		t.Error("keeper copied a heap distribution")
	}
}

// TestKeeperReuseAfterReset: a keeper reused across pass boundaries via
// Reset keeps every previously persisted distribution bit-identical —
// Reset forgets the live tails instead of recycling them — and the
// passes after a Reset persist into fresh slabs, never into memory a
// prior pass's distributions occupy.
func TestKeeperReuseAfterReset(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ar, kp := NewArena(), NewKeeper()
	type kept struct{ want, got *Dist }
	var all []kept
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 60; i++ {
			a := randDist(rng, 0.01, 80)
			b := randDist(rng, 0.01, 50)
			ar.Reset()
			v := MaxIndepInto(ar, a, b)
			g := kp.Persist(v).Dist()
			if g.scratch {
				t.Fatal("keeper returned a scratch view")
			}
			all = append(all, kept{want: MaxIndep(a, b), got: g})
		}
		kp.Reset()
	}
	for i, k := range all {
		bitIdentical(t, fmt.Sprintf("kept %d", i), k.want, k.got)
	}
}

// TestKeeperResetSeversSlabSharing: distributions persisted on opposite
// sides of a Reset never share a backing slab, so dropping one pass's
// distributions frees that pass's memory even while the keeper keeps
// serving later passes.
func TestKeeperResetSeversSlabSharing(t *testing.T) {
	ar, kp := NewArena(), NewKeeper()
	mk := func() *Dist {
		ar.Reset()
		return kp.Persist(ConvolveInto(ar, mustGauss(t, 0.01, 0.5, 0.05), mustGauss(t, 0.01, 0.3, 0.03))).Dist()
	}
	before := mk()
	kp.Reset()
	after := mk()
	// Had Reset kept the slab, the second Persist would have carved the
	// float range immediately after the first (slab carving is strictly
	// sequential); a fresh slab starts somewhere else entirely.
	adjacent := uintptr(unsafe.Pointer(&before.p[0]))+uintptr(len(before.p))*unsafe.Sizeof(float64(0)) ==
		uintptr(unsafe.Pointer(&after.p[0]))
	if adjacent {
		t.Fatal("post-Reset persist continued carving the pre-Reset slab")
	}
	bitIdentical(t, "before vs after", before, after)
}

// TestArenaCopy pins Copy's contract: an immutable value comes back as
// is; a scratch view comes back as a bit-identical view of the copying
// arena, which outlives the Reset and reuse of the arena the view was
// computed in; and a warm copy allocates nothing.
func TestArenaCopy(t *testing.T) {
	a, b := mustGauss(t, 0.01, 0.5, 0.05), mustGauss(t, 0.01, 0.6, 0.04)
	held := NewArena()
	if got := held.Copy(a); got != a {
		t.Fatal("Copy of an immutable value returned a copy, want the value itself")
	}
	if got := held.Copy(nil); got != nil {
		t.Fatal("Copy of nil returned a distribution")
	}
	kernel := NewArena()
	kept := held.Copy(ConvolveInto(kernel, a, b))
	if !kept.scratch {
		t.Fatal("Copy of a scratch view is not scratch")
	}
	kernel.Reset()
	ConvolveInto(kernel, b, b) // reuse the memory the original view sat in
	MaxIndepInto(kernel, a, b)
	bitIdentical(t, "copy after the kernel arena's reset", Convolve(a, b), kept)

	cycle := func() {
		kernel.Reset()
		held.Reset()
		held.Copy(ConvolveInto(kernel, a, b))
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("warm Copy cycle allocates %.1f times per run, want 0", allocs)
	}
}
