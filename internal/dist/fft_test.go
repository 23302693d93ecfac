package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randWideDist builds a distribution with exactly n support bins of
// random positive mass (ends guaranteed nonzero), normalized to 1.
func randWideDist(rng *rand.Rand, dt float64, n int) *Dist {
	p := make([]float64, n)
	total := 0.0
	for i := range p {
		p[i] = 0.01 + rng.Float64()
		total += p[i]
	}
	for i := range p {
		p[i] /= total
	}
	return trim(dt, rng.Intn(41)-20, p)
}

// compareFFTToDirect checks every property the FFT route promises
// against the exact kernel: identical support bounds, non-negative
// mass everywhere, per-bin agreement within tol, and total mass within
// probEps.
func compareFFTToDirect(t *testing.T, label string, a, b *Dist, tol float64) {
	t.Helper()
	direct := convolveDirectInto(nil, a, b)
	fft := convolveFFTInto(nil, a, b)
	if direct.DT() != fft.DT() || direct.I0() != fft.I0() || direct.NumBins() != fft.NumBins() {
		t.Fatalf("%s: support mismatch: direct (dt=%v i0=%d bins=%d), fft (dt=%v i0=%d bins=%d)",
			label, direct.DT(), direct.I0(), direct.NumBins(), fft.DT(), fft.I0(), fft.NumBins())
	}
	var sumD, sumF float64
	for k := 0; k < direct.NumBins(); k++ {
		d, f := direct.MassAt(k), fft.MassAt(k)
		if f < 0 {
			t.Fatalf("%s: negative FFT mass %g at bin %d", label, f, k)
		}
		if diff := math.Abs(d - f); diff > tol {
			t.Fatalf("%s: bin %d differs by %g (direct %g, fft %g)", label, k, diff, d, f)
		}
		sumD += d
		sumF += f
	}
	if math.Abs(sumD-sumF) > probEps {
		t.Fatalf("%s: total mass differs by %g", label, sumD-sumF)
	}
}

// fftTestTol is the pinned per-bin agreement bound between the FFT and
// direct convolution routes. The FFT's rounding error per output bin
// is O(ε·log2 N) of the operand mass scale — observed worst cases sit
// near 1e-16 for kilobin supports — so 1e-12 (= probEps, the package's
// own probability-comparison slack) holds with four orders of margin
// while still failing loudly on any structural defect.
const fftTestTol = 1e-12

// TestConvolveFFTMatchesDirect pins FFT-vs-direct agreement across
// support widths straddling FFTMinSupport, including the degenerate
// single-bin and impulse cases.
func TestConvolveFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct{ na, nb int }{
		{1, 1},   // both impulses: FFT size 1, pure identity transform
		{1, 2},   // impulse against the smallest non-trivial support
		{2, 2},   // FFT size 4
		{1, 100}, // impulse shifts a wide operand
		{3, 17},
		{64, 64},
		{100, 1000}, // asymmetric widths
		{767, 769},  // straddling FFTMinSupport
		{768, 768},  // exactly at the threshold
		{800, 880},  // the 1600-bin benchmark shape
		{1000, 1600},
	}
	for _, tc := range cases {
		a := randWideDist(rng, 0.001, tc.na)
		b := randWideDist(rng, 0.001, tc.nb)
		compareFFTToDirect(t, "random", a, b, fftTestTol)
	}

	// Gaussian operands (the shapes SSTA actually convolves).
	g1 := mustGauss(t, 1.0/1600, 0.50, 0.50/6)
	g2 := mustGauss(t, 1.0/1600, 0.55, 0.55/6)
	compareFFTToDirect(t, "gauss", g1, g2, fftTestTol)

	// Operands with interior zero-mass gaps: the direct kernel yields
	// structural zeros the FFT fills with rounding noise; clamping and
	// the per-bin tolerance must absorb it.
	gap := make([]float64, 900)
	gap[0], gap[899] = 0.5, 0.5
	compareFFTToDirect(t, "gap", trim(0.001, -5, gap), randWideDist(rng, 0.001, 800), fftTestTol)
}

// TestConvolveFFTDispatch pins the route policy: ConvolveInto is the
// FFT kernel exactly when the smaller operand spans FFTMinSupport bins
// or more, and the direct kernel bit for bit otherwise.
func TestConvolveFFTDispatch(t *testing.T) {
	// The threshold must stay above the widest support a default-budget
	// grid produces: SuggestDT spans ~1.3× the estimated max delay
	// across the budget, so supports top out near 0.96·bins ≈ 578 bins
	// at 600. Pin the margin.
	if FFTMinSupport < 600 {
		t.Fatalf("FFTMinSupport %d < 600: supports on default-budget grids could reach the FFT", FFTMinSupport)
	}
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		na, nb int
		fft    bool
	}{
		{1, 1, false},
		{578, 578, false}, // widest support on a 600-bin grid
		{767, 767, false},
		{767, 2000, false}, // the smaller operand decides
		{2000, 767, false},
		{768, 768, true},
		{768, 2000, true},
		{2000, 768, true},
		{769, 1000, true},
	} {
		a := randWideDist(rng, 0.001, tc.na)
		b := randWideDist(rng, 0.001, tc.nb)
		want := convolveDirectInto(nil, a, b)
		if tc.fft {
			want = convolveFFTInto(nil, a, b)
		}
		bitIdentical(t, fmt.Sprintf("ConvolveInto(%d, %d)", tc.na, tc.nb), want, ConvolveInto(nil, a, b))
	}
}

// TestConvolveDispatchBitIdenticalBelowCrossover verifies the whole
// point of the threshold: ConvolveInto on supports narrower than
// FFTMinSupport is the direct kernel, bit for bit — the property that
// keeps the golden traces hex-identical.
func TestConvolveDispatchBitIdenticalBelowCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 60, 400, 578, FFTMinSupport - 1} {
		a := randWideDist(rng, 0.01, n)
		b := randWideDist(rng, 0.01, (n+1)/2)
		bitIdentical(t, "dispatch", convolveDirectInto(nil, a, b), ConvolveInto(nil, a, b))
	}
}

// TestConvolveFFTArenaAllocsZero extends the PR 4 warm-path pin to the
// FFT route: once the arena and the twiddle tables for the padded size
// exist, a convolution through the FFT performs zero allocations.
func TestConvolveFFTArenaAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randWideDist(rng, 0.001, 900)
	b := randWideDist(rng, 0.001, 800)
	ar := NewArena()
	cycle := func() {
		ar.Reset()
		convolveFFTInto(ar, a, b)
	}
	cycle() // warm: grow the arena, build the tables
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm FFT convolution allocated %v times per run, want 0", n)
	}
}

// TestSubConvolveFFT checks the backward-pass kernel inherits the fast
// path (SubConvolve is Convolve against the negated operand; both
// supports here exceed FFTMinSupport) and still matches its direct
// form.
func TestSubConvolveFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randWideDist(rng, 0.001, 900)
	b := randWideDist(rng, 0.001, 850)
	direct := convolveDirectInto(nil, a, NegInto(nil, b))
	fft := SubConvolveInto(nil, a, b)
	if direct.I0() != fft.I0() || direct.NumBins() != fft.NumBins() {
		t.Fatalf("support mismatch: direct (i0=%d bins=%d), fft (i0=%d bins=%d)",
			direct.I0(), direct.NumBins(), fft.I0(), fft.NumBins())
	}
	for k := 0; k < direct.NumBins(); k++ {
		if diff := math.Abs(direct.MassAt(k) - fft.MassAt(k)); diff > fftTestTol {
			t.Fatalf("bin %d differs by %g", k, diff)
		}
	}
}

// FuzzConvolveFFT drives randomized operand shapes through both routes
// and demands the full agreement contract at every width, including
// widths far below and above FFTMinSupport.
func FuzzConvolveFFT(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(1))
	f.Add(int64(2), uint16(1), uint16(300))
	f.Add(int64(3), uint16(40), uint16(40))
	f.Add(int64(4), uint16(700), uint16(900))
	f.Add(int64(5), uint16(1500), uint16(1400))
	f.Fuzz(func(t *testing.T, seed int64, wa, wb uint16) {
		na := int(wa)%1500 + 1
		nb := int(wb)%1500 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randWideDist(rng, 0.001, na)
		b := randWideDist(rng, 0.001, nb)
		compareFFTToDirect(t, "fuzz", a, b, fftTestTol)
	})
}

// TestPercentileCDFDomain pins the out-of-domain contract: NaN in, NaN
// out — never a silently in-range answer.
func TestPercentileCDFDomain(t *testing.T) {
	d := trim(0.5, 2, []float64{0.25, 0.5, 0.25})
	for _, p := range []float64{math.NaN(), -0.01, 1.01, math.Inf(1), math.Inf(-1)} {
		if q := d.Percentile(p); !math.IsNaN(q) {
			t.Errorf("Percentile(%v) = %v, want NaN", p, q)
		}
	}
	// The closed domain endpoints stay answered.
	if q := d.Percentile(0); q != d.MinTime() {
		t.Errorf("Percentile(0) = %v, want MinTime %v", q, d.MinTime())
	}
	if q := d.Percentile(1); q != d.MaxTime() {
		t.Errorf("Percentile(1) = %v, want MaxTime %v", q, d.MaxTime())
	}
	if c := d.CDF(math.NaN()); !math.IsNaN(c) {
		t.Errorf("CDF(NaN) = %v, want NaN", c)
	}
	if c := d.CDF(math.Inf(-1)); c != 0 {
		t.Errorf("CDF(-Inf) = %v, want 0", c)
	}
	if c := d.CDF(math.Inf(1)); math.Abs(c-1) > probEps {
		t.Errorf("CDF(+Inf) = %v, want 1", c)
	}
}
