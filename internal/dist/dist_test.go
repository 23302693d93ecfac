package dist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestTrimZeroMassPanics pins the degenerate-distribution contract: an
// all-zero mass vector violates the mass-sums-to-1 invariant every
// constructor preserves, so trim must fail loudly at the construction
// site instead of returning a p=[0] Dist whose Percentile/CDF/Mean
// silently produce garbage.
func TestTrimZeroMassPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("trim accepted an all-zero mass vector")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "zero total mass") {
			t.Errorf("panic message %q does not diagnose the zero-mass invariant violation", msg)
		}
	}()
	trim(0.1, 3, []float64{0, 0, 0})
}

// TestTrimKeepsMassInvariant: trim on any vector with positive total
// mass returns a Dist with nonzero first and last bins and the total
// preserved exactly.
func TestTrimKeepsMassInvariant(t *testing.T) {
	d := trim(0.1, -2, []float64{0, 0, 0.25, 0, 0.75, 0, 0})
	if d.NumBins() != 3 || d.I0() != 0 {
		t.Fatalf("trim support wrong: %d bins at i0=%d", d.NumBins(), d.I0())
	}
	if d.MassAt(0) != 0.25 || d.MassAt(2) != 0.75 {
		t.Error("trim moved mass")
	}
	total := 0.0
	for k := 0; k < d.NumBins(); k++ {
		total += d.MassAt(k)
	}
	if total != 1 {
		t.Errorf("total mass %v after trim, want exactly 1", total)
	}
}

func TestPoint(t *testing.T) {
	d := Point(0.01, 0.25)
	if d.NumBins() != 1 || d.MassAt(0) != 1 {
		t.Fatal("point mass malformed")
	}
	if d.Mean() != 0.25 || d.Std() != 0 {
		t.Errorf("point moments: mean %v std %v", d.Mean(), d.Std())
	}
	if d.Percentile(0.5) != 0.25 || d.Percentile(0.999) != 0.25 {
		t.Error("point percentiles off")
	}
	if d.CDF(0.24) != 0 || d.CDF(0.25) != 1 {
		t.Error("point CDF off")
	}
}

func TestTruncGaussMoments(t *testing.T) {
	const mean, sigma = 0.2, 0.02
	d, err := TruncGauss(0.001, mean, sigma, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-mean) > 1e-6 {
		t.Errorf("mean %v, want %v", d.Mean(), mean)
	}
	// A 3-sigma truncated Gaussian has std ~0.9866 sigma.
	if d.Std() > sigma || d.Std() < 0.97*sigma {
		t.Errorf("std %v, want slightly below %v", d.Std(), sigma)
	}
	if d.MinTime() < mean-3*sigma-0.001 || d.MaxTime() > mean+3*sigma+0.001 {
		t.Error("support exceeds truncation")
	}
	total := 0.0
	for k := 0; k < d.NumBins(); k++ {
		total += d.MassAt(k)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("mass sums to %v", total)
	}
}

func TestTruncGaussDegenerate(t *testing.T) {
	d, err := TruncGauss(0.001, 0.5, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumBins() != 1 {
		t.Error("zero sigma should be a point mass")
	}
	if _, err := TruncGauss(0, 0.5, 0.1, 3); err == nil {
		t.Error("dt=0 accepted")
	}
	if _, err := TruncGauss(0.001, 0.5, -0.1, 3); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := TruncGauss(0.001, 0.5, 0.1, 0); err == nil {
		t.Error("zero truncation accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := TruncGauss(0.001, v, 0.1, 3); err == nil {
			t.Errorf("mean %v accepted", v)
		}
		if _, err := TruncGauss(0.001, 0.5, v, 3); err == nil {
			t.Errorf("sigma %v accepted", v)
		}
	}
}

func TestConvolveExactOnPoints(t *testing.T) {
	a := Point(0.01, 0.10)
	b := Point(0.01, 0.25)
	c := Convolve(a, b)
	if c.NumBins() != 1 || math.Abs(c.Mean()-0.35) > 1e-12 {
		t.Errorf("point convolution: %v bins, mean %v", c.NumBins(), c.Mean())
	}
}

func TestConvolveMoments(t *testing.T) {
	a, _ := TruncGauss(0.001, 0.2, 0.02, 3)
	b, _ := TruncGauss(0.001, 0.3, 0.015, 3)
	c := Convolve(a, b)
	if math.Abs(c.Mean()-(a.Mean()+b.Mean())) > 1e-9 {
		t.Errorf("conv mean %v, want %v", c.Mean(), a.Mean()+b.Mean())
	}
	wantVar := a.Std()*a.Std() + b.Std()*b.Std()
	if math.Abs(c.Std()*c.Std()-wantVar) > 1e-9 {
		t.Errorf("conv var %v, want %v", c.Std()*c.Std(), wantVar)
	}
}

// MaxIndep must match the empirical maximum of independent draws.
func TestMaxIndepAgainstSampling(t *testing.T) {
	a, _ := TruncGauss(0.001, 0.20, 0.02, 3)
	b, _ := TruncGauss(0.001, 0.21, 0.015, 3)
	m := MaxIndep(a, b)

	rng := rand.New(rand.NewSource(42))
	const n = 200000
	sum := 0.0
	countP99 := 0
	p99 := m.Percentile(0.99)
	for i := 0; i < n; i++ {
		x := sample(rng, a)
		y := sample(rng, b)
		v := math.Max(x, y)
		sum += v
		if v <= p99+1e-12 {
			countP99++
		}
	}
	if diff := math.Abs(m.Mean() - sum/n); diff > 0.001 {
		t.Errorf("max mean %v vs sampled %v", m.Mean(), sum/n)
	}
	if frac := float64(countP99) / n; frac < 0.985 || frac > 0.995 {
		t.Errorf("p99 of max covers %.4f of samples", frac)
	}
}

// sample draws from a discretized distribution by inverse CDF.
func sample(rng *rand.Rand, d *Dist) float64 {
	u := rng.Float64()
	cum := 0.0
	for k := 0; k < d.NumBins(); k++ {
		cum += d.MassAt(k)
		if cum >= u {
			return float64(d.I0()+k) * d.DT()
		}
	}
	return d.MaxTime()
}

func TestMaxIndepDominatedOperandIsExact(t *testing.T) {
	// When one operand is entirely later than the other, the max equals
	// it bit for bit — the property dead-front elision relies on.
	early, _ := TruncGauss(0.001, 0.10, 0.01, 3)
	late, _ := TruncGauss(0.001, 0.30, 0.01, 3)
	m := MaxIndep(early, late)
	if !ApproxEqual(m, late, 0) {
		t.Error("max with dominated operand should equal the late operand exactly")
	}
}

func TestApproxEqual(t *testing.T) {
	a, _ := TruncGauss(0.001, 0.2, 0.02, 3)
	b := a.ShiftBins(0)
	if !ApproxEqual(a, b, 0) {
		t.Error("identical dists not equal")
	}
	if ApproxEqual(a, a.ShiftBins(1), 0) {
		t.Error("shifted dist equal to original")
	}
	c, _ := TruncGauss(0.001, 0.2, 0.021, 3)
	if ApproxEqual(a, c, 0) {
		t.Error("different sigmas equal at tol 0")
	}
	if !ApproxEqual(a, c, 1) {
		t.Error("everything should be equal at tol 1")
	}
}

func TestShiftBins(t *testing.T) {
	a, _ := TruncGauss(0.001, 0.2, 0.02, 3)
	s := a.ShiftBins(-5)
	if math.Abs(a.Mean()-s.Mean()-5*0.001) > 1e-12 {
		t.Error("shift did not move the mean by 5 bins")
	}
}

func TestMaxPercentileGapOfShift(t *testing.T) {
	a, _ := TruncGauss(0.001, 0.2, 0.02, 3)
	b := a.ShiftBins(-7)
	if gap := MaxPercentileGap(a, b); math.Abs(gap-7*0.001) > 1e-12 {
		t.Errorf("gap of a 7-bin shift = %v", gap)
	}
	if gap := MaxPercentileGap(a, a); gap != 0 {
		t.Errorf("gap of identity = %v", gap)
	}
	// A rightward (worsening) shift has no positive gap.
	if gap := MaxPercentileGap(a, a.ShiftBins(3)); gap != 0 {
		t.Errorf("gap of worsening shift = %v", gap)
	}
}

// The bound must dominate the objective improvement at the sink for
// randomized perturbations — the contract Theorems 1-4 build on.
func TestPerturbationBoundDominatesPercentileImprovement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		base, _ := TruncGauss(0.001, 0.2+0.1*rng.Float64(), 0.01+0.02*rng.Float64(), 3)
		pert := base.ShiftBins(-rng.Intn(10))
		if rng.Intn(2) == 0 {
			other, _ := TruncGauss(0.001, 0.15+0.1*rng.Float64(), 0.01+0.02*rng.Float64(), 3)
			pert = MaxIndep(pert, other)
			base = MaxIndep(base, other)
		}
		bound := PerturbationBound(base, pert)
		for _, p := range []float64{0.5, 0.9, 0.99} {
			if impr := base.Percentile(p) - pert.Percentile(p); impr > bound+1e-9 {
				t.Fatalf("trial %d: p%v improvement %v exceeds bound %v", trial, p, impr, bound)
			}
		}
	}
}

func TestPercentileMonotone(t *testing.T) {
	d, _ := TruncGauss(0.001, 0.2, 0.02, 3)
	prev := math.Inf(-1)
	for p := 0.01; p < 1; p += 0.01 {
		q := d.Percentile(p)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%v", p)
		}
		prev = q
	}
	if d.Percentile(0) != d.MinTime() && d.Percentile(0) > d.MaxTime() {
		t.Error("p=0 quantile out of support")
	}
}

func TestCDFQuantileRoundTrip(t *testing.T) {
	d, _ := TruncGauss(0.001, 0.2, 0.02, 3)
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		q := d.Percentile(p)
		if cdf := d.CDF(q); cdf < p-1e-9 {
			t.Errorf("CDF(Q(%v)) = %v < p", p, cdf)
		}
	}
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
