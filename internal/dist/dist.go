// Package dist implements the discretized probability distributions the
// SSTA engine propagates (the DAC'03 representation the paper builds
// on): a probability mass function on the uniform grid t = i·dt. Bin k
// of a Dist carries the probability that the value equals (i0+k)·dt, so
// convolution (delay addition along an edge) and the independence
// maximum (fanin merge) are exact lattice operations — which is what
// lets the accelerated optimizer reproduce brute-force results bit for
// bit. Convolution runs one direct O(n·m) algorithm at every support
// width: an AVX2 kernel where the CPU has it and a portable loop
// elsewhere, bit-identical to each other and to the one-row loop.
//
// The package also provides the perturbation machinery of Section 3:
// PerturbationBound computes Δ, the largest leftward shift of a
// perturbed CDF against its base (the per-node quantity whose maximum
// over a propagation front is the paper's pruning bound Smx·Δw).
//
// # Memory model
//
// Every kernel exists in two forms. The classic form (Convolve,
// MaxIndep, MinIndep, SubConvolve, Neg) allocates a fresh immutable
// Dist — safe to share between goroutines, snapshot, and retain
// forever. The Into form (ConvolveInto, MaxIndepInto, …) takes an
// *Arena and returns a scratch view whose mass vector and header live
// in arena memory: bit-identical values (same trim, same snap-to-1),
// zero steady-state allocations, but valid only until the arena's next
// Reset. Call Persist on a scratch view to obtain an immutable compact
// copy before retaining it. A nil arena makes every Into kernel behave
// exactly like its allocating wrapper. A holder that keeps scratch
// results for a while and drops them one by one (the optimizer's
// perturbation fronts) copies them into a Recycler instead, which hands
// the memory of dropped values to later ones.
//
// The retained forms are types: Persist and Keeper.Persist return an
// Owned, Recycler.Keep a Kept, and nothing else produces either, so a
// slot typed Owned or Kept cannot take a raw scratch view. See
// DESIGN.md ("Memory model") for the ownership rules the SSTA hot
// paths follow.
package dist

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Dist is a discretized probability distribution on a uniform grid:
// mass p[k] sits at time (i0+k)·dt. The mass vector always sums to 1
// (up to float rounding) and has nonzero first and last entries.
//
// A Dist is immutable after construction unless it is an arena-backed
// scratch view (see Arena) or a recycled value (see Recycler); scratch
// views die at the arena's next Reset, recycled values when their
// holder drops them, and both must be Persist-ed before being retained
// or shared.
type Dist struct {
	dt float64
	i0 int
	p  []float64

	// scratch marks arena-backed views and recycled values; Persist
	// uses it to decide whether a compact copy is needed.
	scratch bool
	// recycled marks values a Recycler kept, which it may take back.
	recycled bool

	// cum lazily caches the cumulative sums of p for Percentile/CDF on
	// an immutable value: cum[k] = p[0]+…+p[k], computed on first query
	// and binary-searched afterwards. The pointer is atomic so
	// concurrent readers may race to fill it — both compute the
	// identical array, so either store wins harmlessly. Scratch and
	// recycled values never fill it (see reach), so a reused header
	// never carries a stale cache.
	cum atomic.Pointer[[]float64]
}

// trim drops zero-mass bins at both ends, keeping supports tight.
//
// An all-zero mass vector panics: every constructor in this package
// (Point, TruncGauss, Convolve, MaxIndep, MinIndep) preserves unit
// mass, so zero total mass can only mean a corrupted operand or a bug
// in a new operation. The historical fallback — silently returning a
// single zero-mass bin — violated the documented mass-sums-to-1
// invariant and let Percentile/CDF/Mean return garbage far from the
// actual defect; failing loudly at the construction site is the
// debuggable behavior.
func trim(dt float64, i0 int, p []float64) *Dist {
	return trimInto(nil, dt, i0, p)
}

// trimInto is trim with the result header drawn from ar (or the heap
// when ar is nil). The mass slice is never copied — the returned Dist
// views p[lo:hi].
func trimInto(ar *Arena, dt float64, i0 int, p []float64) *Dist {
	lo, hi := 0, len(p)
	for lo < hi && p[lo] == 0 {
		lo++
	}
	for hi > lo && p[hi-1] == 0 {
		hi--
	}
	if lo == hi {
		panic(fmt.Sprintf("dist: zero total mass over %d bins (dt=%v, i0=%v) — operand violated the mass-sums-to-1 invariant", len(p), dt, i0))
	}
	if ar == nil {
		return &Dist{dt: dt, i0: i0 + lo, p: p[lo:hi]}
	}
	return ar.newDist(dt, i0+lo, p[lo:hi])
}

// Point returns the distribution concentrated on the grid point nearest
// to v.
func Point(dt, v float64) *Dist {
	if dt <= 0 {
		panic(fmt.Sprintf("dist: non-positive dt %v", dt))
	}
	return &Dist{dt: dt, i0: int(math.Round(v / dt)), p: []float64{1}}
}

// TruncGauss discretizes a Gaussian with the given mean and standard
// deviation, truncated at ±k·sigma and renormalized — the paper's
// intra-die delay variation model. A zero sigma yields a point mass; a
// non-finite mean or sigma, such as the delay of a NaN gate width, is an
// error.
func TruncGauss(dt, mean, sigma, k float64) (*Dist, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("dist: non-positive dt %v", dt)
	}
	if math.IsNaN(mean) || math.IsInf(mean, 0) || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("dist: non-finite mean %v or sigma %v", mean, sigma)
	}
	if sigma < 0 {
		return nil, fmt.Errorf("dist: negative sigma %v", sigma)
	}
	if sigma == 0 {
		return Point(dt, mean), nil
	}
	if k <= 0 {
		return nil, fmt.Errorf("dist: non-positive truncation %v", k)
	}
	lo, hi := mean-k*sigma, mean+k*sigma
	iLo := int(math.Round(lo / dt))
	iHi := int(math.Round(hi / dt))
	p := make([]float64, iHi-iLo+1)
	total := 0.0
	for i := iLo; i <= iHi; i++ {
		a := math.Max(lo, (float64(i)-0.5)*dt)
		b := math.Min(hi, (float64(i)+0.5)*dt)
		if b <= a {
			continue
		}
		m := phi((b-mean)/sigma) - phi((a-mean)/sigma)
		p[i-iLo] = m
		total += m
	}
	if total <= 0 {
		// The whole truncation window fell inside one half-bin; collapse
		// to a point mass at the mean.
		return Point(dt, mean), nil
	}
	for i := range p {
		p[i] /= total
	}
	return trim(dt, iLo, p), nil
}

// phi is the standard normal CDF.
func phi(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// DT returns the grid resolution in time units.
func (d *Dist) DT() float64 { return d.dt }

// I0 returns the grid index of the first bin.
func (d *Dist) I0() int { return d.i0 }

// NumBins returns the number of bins in the support.
func (d *Dist) NumBins() int { return len(d.p) }

// MassAt returns the probability mass of bin k (0 <= k < NumBins).
func (d *Dist) MassAt(k int) float64 { return d.p[k] }

// MinTime returns the earliest support point.
func (d *Dist) MinTime() float64 { return float64(d.i0) * d.dt }

// MaxTime returns the latest support point.
func (d *Dist) MaxTime() float64 { return float64(d.i0+len(d.p)-1) * d.dt }

// Mean returns the expected value.
func (d *Dist) Mean() float64 {
	m := 0.0
	for k, pk := range d.p {
		m += float64(d.i0+k) * pk
	}
	return m * d.dt
}

// Std returns the standard deviation.
func (d *Dist) Std() float64 {
	mean := d.Mean()
	v := 0.0
	for k, pk := range d.p {
		x := float64(d.i0+k)*d.dt - mean
		v += pk * x * x
	}
	return math.Sqrt(v)
}

// probEps absorbs float rounding when comparing cumulative
// probabilities: bin sums drift by ~1e-16 per operation, and a quantile
// query must not skip to the next bin over such noise.
const probEps = 1e-12

// cumsum returns the cached cumulative-sum array, computing it on first
// use: cumsum()[k] is the running sum p[0]+…+p[k] in index order —
// bit-identical to the accumulator the historical linear scans carried,
// so binary searches over it reproduce the scans exactly. Concurrent
// first queries may compute it twice; both arrays are identical and the
// atomic store is idempotent. Only immutable values call it.
func (d *Dist) cumsum() []float64 {
	if c := d.cum.Load(); c != nil {
		return *c
	}
	c := make([]float64, len(d.p))
	s := 0.0
	for k, pk := range d.p {
		s += pk
		c[k] = s
	}
	d.cum.Store(&c)
	return c
}

// reach returns the first index k whose running sum p[0]+…+p[k]
// reaches thr, or len(p) when none does. An immutable value
// binary-searches its cached cumulative sums. A scratch or recycled
// value scans the running sum directly: it dies with its arena rewind
// or its holder's drop, usually after one query (a finished front's
// sink), so a cached array would be a heap allocation that outlives no
// second query. Masses are non-negative, so the running sum never
// decreases and both ways find the same index.
func (d *Dist) reach(thr float64) int {
	if d.scratch {
		s := 0.0
		for k, pk := range d.p {
			s += pk
			if s >= thr {
				return k
			}
		}
		return len(d.p)
	}
	c := d.cumsum()
	return sort.Search(len(c), func(i int) bool { return c[i] >= thr })
}

// Percentile returns the p-quantile: the earliest grid point whose
// cumulative probability reaches p. On an immutable value the
// cumulative sums are cached on first query and binary-searched
// afterwards, so repeated quantile queries against one distribution
// (the slack/criticality tables) cost O(log n) instead of O(n); a
// scratch or recycled value scans instead (see reach).
//
// The domain is [0, 1]: p = 0 answers MinTime (modulo probEps), p = 1
// answers MaxTime. Out-of-domain inputs — NaN, p < 0, p > 1 — return
// NaN rather than silently snapping to an in-range quantile; a caller
// holding an unvalidated probability must check it, not launder it.
func (d *Dist) Percentile(p float64) float64 {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	k := d.reach(p - probEps)
	if k == len(d.p) {
		return d.MaxTime()
	}
	return float64(d.i0+k) * d.dt
}

// CDF returns the probability of a value at or below t. Like
// Percentile it binary-searches the cached cumulative sums of an
// immutable value and sums a scratch or recycled value's bins
// directly. A NaN query returns NaN (±Inf behave naturally: -Inf → 0,
// +Inf → 1).
func (d *Dist) CDF(t float64) float64 {
	if math.IsNaN(t) {
		return math.NaN()
	}
	thr := t + probEps*d.dt
	// n is the number of leading bins whose grid time is at or below
	// thr; grid times increase strictly with the index, so the
	// predicate is monotone.
	n := sort.Search(len(d.p), func(k int) bool { return float64(d.i0+k)*d.dt > thr })
	if n == 0 {
		return 0
	}
	if d.scratch {
		s := 0.0
		for _, pk := range d.p[:n] {
			s += pk
		}
		return s
	}
	return d.cumsum()[n-1]
}

// ShiftBins returns a copy displaced by n grid steps (negative n shifts
// earlier). The mass vector is shared, so a shift of a scratch view is
// itself a scratch view.
func (d *Dist) ShiftBins(n int) *Dist {
	return &Dist{dt: d.dt, i0: d.i0 + n, p: d.p, scratch: d.scratch}
}

// Owned is a distribution in a retained slot: an immutable value that
// outlives every arena and recycler. Only Persist and Keeper.Persist
// produce one, so a slot typed Owned — an analysis's arrivals, edge
// delays and required times, and their snapshots — cannot take an
// arena view or a recycled value: storing a kernel result there
// without persisting it does not compile. The zero Owned is an empty
// slot.
type Owned struct{ d *Dist }

// Dist returns the owned distribution, nil for an empty slot. It is
// immutable and safe to share.
func (o Owned) Dist() *Dist { return o.d }

// Persist returns d when it is an ordinary immutable value, or a
// compact heap copy when d is an arena-backed scratch view or a
// recycled value — the one operation that may move a kernel result out
// of scratch memory into a retained slot (an arrival, an edge delay, a
// snapshot). Persist of nil is the empty slot.
func (d *Dist) Persist() Owned {
	if d == nil || !d.scratch {
		return Owned{d}
	}
	p := make([]float64, len(d.p))
	copy(p, d.p)
	return Owned{&Dist{dt: d.dt, i0: d.i0, p: p}}
}

// Convolve returns the distribution of the sum of two independent
// variables — the arrival-plus-edge-delay step of SSTA. Exact on the
// lattice: indices add.
func Convolve(a, b *Dist) *Dist { return ConvolveInto(nil, a, b) }

// ConvolveInto is Convolve with the output mass vector and header drawn
// from ar; a nil arena allocates, making it identical to Convolve. The
// result values are bit-identical either way.
//
// It is the exact O(n·m) kernel at every support width: each output
// bin is the sum of its contributing products, accumulated in index
// order. Two kernels compute it, bit for bit alike. The AVX2 kernel
// (convolveVectorInto) runs where the CPU and OS support AVX2
// (vectorKernel) and an arena holds its padded operand. The portable
// blocked loop (convolvePortableInto) runs everywhere else: on other
// architectures, on older CPUs, and in the allocating wrappers, whose
// allocation counts it keeps.
func ConvolveInto(ar *Arena, a, b *Dist) *Dist {
	if vectorKernel && ar != nil {
		return convolveVectorInto(ar, a, b)
	}
	return convolvePortableInto(ar, a, b)
}

// convolveVectorInto is the output-stationary form of the direct
// kernel. The shorter operand x gives the rows; the longer one y is
// copied into an arena buffer between nx-1 zeros on each side, so
// every output k reads the same window of rows:
// out[k] = Σ_i x[i]·ypad[k+nx-1-i], summed for i ascending from +0.
// convolveAVX2 computes 16 outputs at a time in vector registers (see
// convolve_amd64.s). Bit identity with the one-row loop (refConvolve
// in the tests) follows from the order argument of
// convolvePortableInto: the nonzero products reach each sum in the
// same order, and the extra terms x[i]·0 are +0, which leaves a sum
// that is +0 or positive unchanged because masses are finite and ≥ 0.
// A nil arena allocates both buffers; ConvolveInto never passes one.
func convolveVectorInto(ar *Arena, a, b *Dist) *Dist {
	x, y := a.p, b.p
	if len(x) > len(y) {
		x, y = y, x
	}
	nx, m := len(x), len(y)
	out := overwrittenFloats(ar, nx+m-1)
	ypad := y
	if nx > 1 {
		ypad = overwrittenFloats(ar, m+2*(nx-1))
		clear(ypad[:nx-1])
		copy(ypad[nx-1:], y)
		clear(ypad[nx-1+m:])
	}
	convolveAVX2(out, x, ypad)
	return trimInto(ar, a.dt, a.i0+b.i0, out)
}

// convolvePortableInto is the direct kernel in plain Go.
//
// The shorter operand x indexes the rows, and rows run in blocks of
// four, each block adding its four products to one output in a single
// pass; the last 1–3 rows run one at a time. Bit identity with the
// one-row loop (kept as refConvolve in the tests) follows from the
// order argument: output k's partial sum starts at +0 and is extended
// by x[i]·y[k-i] for i ascending — block by block, and inside a block
// row by row — which is exactly the sequence of roundings the one-row
// loop performs. Zero rows are not skipped: their products are +0, and
// adding +0 to a sum that is +0 or positive returns it unchanged.
func convolvePortableInto(ar *Arena, a, b *Dist) *Dist {
	out := overwrittenFloats(ar, len(a.p)+len(b.p)-1)
	clear(out) // the rows accumulate into it
	x, y := a.p, b.p
	if len(x) > len(y) {
		x, y = y, x
	}
	m := len(y)
	i := 0
	// Full blocks need m >= 4, which len(x) >= 4 implies.
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		o := out[i : i+m+3]
		// Head: outputs i..i+2 see only the first rows of the block.
		o[0] += x0 * y[0]
		s := o[1]
		s += x0 * y[1]
		s += x1 * y[0]
		o[1] = s
		s = o[2]
		s += x0 * y[2]
		s += x1 * y[1]
		s += x2 * y[0]
		o[2] = s
		// Steady state: outputs i+3..i+m-1 see all four rows.
		mid := o[3:m]
		n := len(mid)
		y0, y1, y2, y3 := y[3:3+n], y[2:2+n], y[1:1+n], y[:n]
		for t := range mid {
			s := mid[t]
			s += x0 * y0[t]
			s += x1 * y1[t]
			s += x2 * y2[t]
			s += x3 * y3[t]
			mid[t] = s
		}
		// Tail: outputs i+m..i+m+2 see only the last rows of the block.
		s = o[m]
		s += x1 * y[m-1]
		s += x2 * y[m-2]
		s += x3 * y[m-3]
		o[m] = s
		s = o[m+1]
		s += x2 * y[m-1]
		s += x3 * y[m-2]
		o[m+1] = s
		o[m+2] += x3 * y[m-1]
	}
	for ; i < len(x); i++ {
		xi := x[i]
		row := out[i : i+m]
		for j, yj := range y {
			row[j] += xi * yj
		}
	}
	return trimInto(ar, a.dt, a.i0+b.i0, out)
}

// MaxIndep returns the distribution of the maximum of two independent
// variables — the fanin merge of SSTA: the result CDF is the product of
// the operand CDFs, evaluated bin by bin on the common grid.
func MaxIndep(a, b *Dist) *Dist { return MaxIndepInto(nil, a, b) }

// MaxIndepInto is MaxIndep writing into arena scratch (nil arena
// allocates). When one operand dominates outright the operand itself is
// returned — possibly a scratch view, possibly a shared immutable value;
// callers that retain the result go through Persist either way.
//
// The merge runs in two segments — both operands in support, then the
// longer one alone — and tests snap-to-1 only at each operand's last
// bin, the one index where the one-index loop (refMaxIndep in the
// tests) can fire it. Bit identity follows from the order argument:
// each running CDF is extended by the same masses in the same index
// order, and every output bin is the same product minus the same
// previous product.
func MaxIndepInto(ar *Arena, a, b *Dist) *Dist {
	// A strictly-later operand dominates outright: when one support ends
	// at or before the other begins, the maximum IS the later operand —
	// returned as-is, bit for bit. This is the exact cancellation the
	// optimizer's dead-front elision detects ("an unperturbed fanin
	// dominates the max"), and the common case on unbalanced fanins.
	if a.i0+len(a.p)-1 <= b.i0 {
		return b
	}
	if b.i0+len(b.p)-1 <= a.i0 {
		return a
	}
	lo := max(a.i0, b.i0)
	aHi, bHi := a.i0+len(a.p)-1, b.i0+len(b.p)-1
	mid, hi := min(aHi, bHi), max(aHi, bHi)
	out := overwrittenFloats(ar, hi-lo+1)
	// Prefix sums: accumulate each operand's CDF below lo in index
	// order — the same additions, in the same order, that the merge
	// continues, so the running sums are bit-identical to a single scan
	// from each operand's first bin. (The dominance shortcuts above
	// guarantee neither prefix consumes a whole operand, so no
	// snap-to-1 check is needed here.)
	cumA, cumB := 0.0, 0.0
	for _, v := range a.p[:lo-a.i0] {
		cumA += v
	}
	for _, v := range b.p[:lo-b.i0] {
		cumB += v
	}
	// Segment 1, lo..mid: both operands in support. Only mid can be an
	// operand's last bin, so the snap-to-1 test runs there alone.
	pa, pb := a.p[lo-a.i0:mid-a.i0+1], b.p[lo-b.i0:mid-b.i0+1]
	o := out[:len(pa)]
	last := len(o) - 1
	pb = pb[:len(pa)]
	prev := 0.0 // product of CDFs at the previous index; P(max < lo) = 0
	for k := 0; k < last; k++ {
		cumA += pa[k]
		cumB += pb[k]
		prod := cumA * cumB
		o[k] = binMass(prod, prev)
		prev = prod
	}
	cumA += pa[last]
	// Snap a fully-consumed operand's CDF to exactly 1 (bin sums land at
	// 1±ulps): a dominated operand then contributes the identity, so the
	// max of X and a strictly-later Y reproduces Y bit for bit — the
	// exact cancellation the optimizer's dead-front elision detects.
	if aHi == mid && math.Abs(cumA-1) < probEps {
		cumA = 1
	}
	cumB += pb[last]
	if bHi == mid && math.Abs(cumB-1) < probEps {
		cumB = 1
	}
	prod := cumA * cumB
	o[last] = binMass(prod, prev)
	prev = prod
	if mid == hi {
		return trimInto(ar, a.dt, lo, out)
	}
	// Segment 2, mid+1..hi: the longer operand alone against the other's
	// final CDF. IEEE multiplication commutes, so cum·fixed is the same
	// product cumA·cumB the one-index loop forms.
	rest, cum, fixed := a.p[mid+1-a.i0:], cumA, cumB
	if bHi > aHi {
		rest, cum, fixed = b.p[mid+1-b.i0:], cumB, cumA
	}
	o = out[len(o):]
	last = len(o) - 1
	rest = rest[:len(o)]
	for k := 0; k < last; k++ {
		cum += rest[k]
		prod := cum * fixed
		o[k] = binMass(prod, prev)
		prev = prod
	}
	cum += rest[last]
	if math.Abs(cum-1) < probEps {
		cum = 1
	}
	o[last] = binMass(cum*fixed, prev)
	return trimInto(ar, a.dt, lo, out)
}

// binMass is one merge bin's mass: the running CDF minus its value at
// the previous index, floored at 0 against rounding.
func binMass(cur, prev float64) float64 {
	m := cur - prev
	if m < 0 {
		m = 0
	}
	return m
}

// Neg returns the distribution of the negated variable: mass at grid
// point i moves to -i. Used to subtract independent variables by
// convolution (A - B = A + (-B)).
func (d *Dist) Neg() *Dist { return NegInto(nil, d) }

// NegInto is Neg writing into arena scratch (nil arena allocates).
//
// An empty support panics: a zero-length mass vector violates the
// nonzero-mass invariant every constructor maintains, and the
// historical behavior — returning a headerless distribution whose i0
// arithmetic was computed from len(p)-1 = -1 — produced a corrupt value
// that only failed far downstream.
func NegInto(ar *Arena, d *Dist) *Dist {
	if len(d.p) == 0 {
		panic("dist: Neg of an empty distribution (zero-length support violates the nonzero-mass invariant)")
	}
	p := overwrittenFloats(ar, len(d.p))
	for i, v := range d.p {
		p[len(p)-1-i] = v
	}
	i0 := -(d.i0 + len(d.p) - 1)
	if ar == nil {
		return &Dist{dt: d.dt, i0: i0, p: p}
	}
	return ar.newDist(d.dt, i0, p)
}

// SubConvolve returns the distribution of the difference A - B of two
// independent variables — the backward-propagation step of required-time
// analysis (required at a fanin = required at the fanout minus the edge
// delay). Exact on the lattice: indices subtract.
func SubConvolve(a, b *Dist) *Dist { return SubConvolveInto(nil, a, b) }

// SubConvolveInto is SubConvolve with both the negation and the
// convolution working in arena scratch (nil arena allocates).
func SubConvolveInto(ar *Arena, a, b *Dist) *Dist {
	return ConvolveInto(ar, a, NegInto(ar, b))
}

// MinIndep returns the distribution of the minimum of two independent
// variables — the fanout merge of backward required-time propagation:
// the survival function of the result is the product of the operand
// survival functions, evaluated bin by bin on the common grid.
func MinIndep(a, b *Dist) *Dist { return MinIndepInto(nil, a, b) }

// MinIndepInto is MinIndep writing into arena scratch (nil arena
// allocates); the dominance shortcuts return the operand itself, as in
// MaxIndepInto.
//
// The merge runs in two segments — the earlier operand alone, then both
// in support — and tests snap-to-1 only at the last shared index, the
// one place the one-index loop (refMinIndep in the tests) can fire it.
// Bit identity follows from the order argument of MaxIndepInto: each
// running CDF takes the same additions in the same order, and while the
// later operand is out of support its factor is the same exact 1 - 0.
func MinIndepInto(ar *Arena, a, b *Dist) *Dist {
	// A strictly-earlier operand dominates outright: when one support
	// ends at or before the other begins, the minimum IS the earlier
	// operand — returned as-is, bit for bit (the mirror image of
	// MaxIndep's shortcut).
	if a.i0+len(a.p)-1 <= b.i0 {
		return a
	}
	if b.i0+len(b.p)-1 <= a.i0 {
		return b
	}
	lo, mid := min(a.i0, b.i0), max(a.i0, b.i0)
	aHi, bHi := a.i0+len(a.p)-1, b.i0+len(b.p)-1
	hi := min(aHi, bHi)
	out := overwrittenFloats(ar, hi-lo+1)
	// P(min <= t) = 1 - (1-Fa)(1-Fb); accumulate mass per bin as the
	// CDF difference, with the same snap-to-1 protection as MaxIndep.
	// lo is the smaller i0, so both CDFs below lo are exactly zero.
	cumA, cumB := 0.0, 0.0
	prev := 1 - (1-cumA)*(1-cumB)
	// Segment 1, lo..mid-1: the earlier operand alone; the other's
	// survival factor is its exact 1 - 0. No last bin lies here (the
	// dominance shortcuts above rule it out).
	o := out[:mid-lo]
	if len(o) > 0 {
		early, fixed := a.p, 1-cumB
		if b.i0 < a.i0 {
			early, fixed = b.p, 1-cumA
		}
		cum := 0.0
		for k, v := range early[:len(o)] {
			cum += v
			cur := 1 - (1-cum)*fixed
			o[k] = binMass(cur, prev)
			prev = cur
		}
		if b.i0 < a.i0 {
			cumB = cum
		} else {
			cumA = cum
		}
	}
	// Segment 2, mid..hi: both operands in support. Only hi can be an
	// operand's last bin, so the snap-to-1 test runs there alone.
	o = out[len(o):]
	last := len(o) - 1
	pa, pb := a.p[mid-a.i0:hi-a.i0+1], b.p[mid-b.i0:hi-b.i0+1]
	pa, pb = pa[:len(o)], pb[:len(o)]
	for k := 0; k < last; k++ {
		cumA += pa[k]
		cumB += pb[k]
		cur := 1 - (1-cumA)*(1-cumB)
		o[k] = binMass(cur, prev)
		prev = cur
	}
	cumA += pa[last]
	if aHi == hi && math.Abs(cumA-1) < probEps {
		cumA = 1
	}
	cumB += pb[last]
	if bHi == hi && math.Abs(cumB-1) < probEps {
		cumB = 1
	}
	o[last] = binMass(1-(1-cumA)*(1-cumB), prev)
	return trimInto(ar, a.dt, lo, out)
}

// ApproxEqual reports whether two distributions assign the same mass to
// every grid point within tol (tol = 0 demands bit equality) — the test
// the optimizer uses to detect that a perturbation has died out.
func ApproxEqual(a, b *Dist, tol float64) bool {
	if a == b {
		return true
	}
	if a.dt != b.dt {
		return false
	}
	lo, hi := a.i0, a.i0+len(a.p)-1
	if b.i0 < lo {
		lo = b.i0
	}
	if h := b.i0 + len(b.p) - 1; h > hi {
		hi = h
	}
	for i := lo; i <= hi; i++ {
		var ma, mb float64
		if k := i - a.i0; k >= 0 && k < len(a.p) {
			ma = a.p[k]
		}
		if k := i - b.i0; k >= 0 && k < len(b.p) {
			mb = b.p[k]
		}
		if diff := ma - mb; diff > tol || diff < -tol {
			return false
		}
	}
	return true
}

// MaxPercentileGap returns the largest horizontal gap between the
// quantile functions of a and b: sup over probability levels of
// (Q_a(p) − Q_b(p)), clamped at zero. When b is a leftward perturbation
// of a, this is the maximum arrival-time improvement at any percentile.
//
// Probability levels within probEps are treated as reached — the ε
// slack the optimizer's pruneSlack constant accounts for.
func MaxPercentileGap(a, b *Dist) float64 {
	// The gap is tracked in bins and scaled by dt once: for dt > 0
	// rounding is monotone, so the scaled maximum equals the maximum of
	// the scaled gaps bit for bit (refMaxPercentileGap in the tests
	// scales every candidate).
	gap := 0
	cumB := 0.0
	cumA := 0.0
	ja := 0 // bins of a consumed so far
	// (a.i0+ja-1) - (b.i0+k), the index gap at level k, is ja-k+off.
	off := a.i0 - 1 - b.i0
	for k, pk := range b.p {
		cumB += pk
		if pk <= 0 {
			continue
		}
		for ja < len(a.p) && cumA < cumB-probEps {
			cumA += a.p[ja]
			ja++
		}
		// Q_a(cumB) is the last bin consumed; before any bin is consumed
		// the level is below probEps and the gap there is immaterial.
		if ja == 0 {
			continue
		}
		if g := ja - k + off; g > gap {
			gap = g
		}
	}
	return float64(gap) * a.dt
}

// PerturbationBound returns Δ for a perturbed arrival CDF against its
// base: the largest leftward shift at any probability level, an upper
// bound (Theorems 1–4) on how much any downstream percentile — and so
// the optimization objective — can improve.
func PerturbationBound(base, perturbed *Dist) float64 {
	return MaxPercentileGap(base, perturbed)
}
