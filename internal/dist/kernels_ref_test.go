package dist

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The reference loops below are the one-row and one-index-at-a-time
// forms of the production kernels, kept verbatim as the specification
// the blocked and segmented kernels must reproduce bit for bit. They
// allocate from the heap and never take a dominance shortcut they do
// not share with the production kernel.

// refConvolve is the row-at-a-time direct convolution: shorter operand
// outer, zero rows skipped, every output's partial sum extended in
// ascending row order.
func refConvolve(a, b *Dist) *Dist {
	out := make([]float64, len(a.p)+len(b.p)-1)
	x, y := a, b
	if len(x.p) > len(y.p) {
		x, y = y, x
	}
	for i, pi := range x.p {
		if pi == 0 {
			continue
		}
		row := out[i : i+len(y.p)]
		for j, pj := range y.p {
			row[j] += pi * pj
		}
	}
	return trim(a.dt, a.i0+b.i0, out)
}

// refMaxIndep is the index-at-a-time merge with a snap-to-1 test on
// every bin.
func refMaxIndep(a, b *Dist) *Dist {
	if a.i0+len(a.p)-1 <= b.i0 {
		return b
	}
	if b.i0+len(b.p)-1 <= a.i0 {
		return a
	}
	lo := a.i0
	if b.i0 > lo {
		lo = b.i0
	}
	aHi, bHi := a.i0+len(a.p)-1, b.i0+len(b.p)-1
	hi := aHi
	if bHi > hi {
		hi = bHi
	}
	out := make([]float64, hi-lo+1)
	cumA, cumB := 0.0, 0.0
	for k := 0; k < lo-a.i0; k++ {
		cumA += a.p[k]
	}
	for k := 0; k < lo-b.i0; k++ {
		cumB += b.p[k]
	}
	prev := 0.0
	for i := lo; i <= hi; i++ {
		if k := i - a.i0; k >= 0 && k < len(a.p) {
			cumA += a.p[k]
			if k == len(a.p)-1 && math.Abs(cumA-1) < probEps {
				cumA = 1
			}
		}
		if k := i - b.i0; k >= 0 && k < len(b.p) {
			cumB += b.p[k]
			if k == len(b.p)-1 && math.Abs(cumB-1) < probEps {
				cumB = 1
			}
		}
		prod := cumA * cumB
		m := prod - prev
		if m < 0 {
			m = 0
		}
		out[i-lo] = m
		prev = prod
	}
	return trim(a.dt, lo, out)
}

// refMinIndep mirrors refMaxIndep on survival functions.
func refMinIndep(a, b *Dist) *Dist {
	if a.i0+len(a.p)-1 <= b.i0 {
		return a
	}
	if b.i0+len(b.p)-1 <= a.i0 {
		return b
	}
	lo := a.i0
	if b.i0 < lo {
		lo = b.i0
	}
	aHi, bHi := a.i0+len(a.p)-1, b.i0+len(b.p)-1
	hi := aHi
	if bHi < hi {
		hi = bHi
	}
	out := make([]float64, hi-lo+1)
	cumA, cumB := 0.0, 0.0
	prev := 1 - (1-cumA)*(1-cumB)
	for i := lo; i <= hi; i++ {
		if k := i - a.i0; k >= 0 && k < len(a.p) {
			cumA += a.p[k]
			if k == len(a.p)-1 && math.Abs(cumA-1) < probEps {
				cumA = 1
			}
		}
		if k := i - b.i0; k >= 0 && k < len(b.p) {
			cumB += b.p[k]
			if k == len(b.p)-1 && math.Abs(cumB-1) < probEps {
				cumB = 1
			}
		}
		cur := 1 - (1-cumA)*(1-cumB)
		m := cur - prev
		if m < 0 {
			m = 0
		}
		out[i-lo] = m
		prev = cur
	}
	return trim(a.dt, lo, out)
}

// refMaxPercentileGap tracks the gap as a float, converting and scaling
// every candidate index gap.
func refMaxPercentileGap(a, b *Dist) float64 {
	gap := 0.0
	cumB := 0.0
	cumA := 0.0
	ja := 0
	for k, pk := range b.p {
		cumB += pk
		if pk <= 0 {
			continue
		}
		for ja < len(a.p) && cumA < cumB-probEps {
			cumA += a.p[ja]
			ja++
		}
		if ja == 0 {
			continue
		}
		g := float64((a.i0+ja-1)-(b.i0+k)) * a.dt
		if g > gap {
			gap = g
		}
	}
	return gap
}

// directKernel is one implementation of the direct convolution.
type directKernel struct {
	name string
	run  func(ar *Arena, a, b *Dist) *Dist
}

// directKernels lists the direct-convolution kernels this CPU can run,
// each checked on its own against refConvolve: the portable blocked
// loop everywhere, and the AVX2 kernel where the CPU and OS support it.
func directKernels() []directKernel {
	ks := []directKernel{{"portable", convolvePortableInto}}
	if vectorKernel {
		ks = append(ks, directKernel{"vector", convolveVectorInto})
	}
	return ks
}

// logVectorSkip notes in the test log when the vector kernel goes
// unchecked because the CPU lacks AVX2.
func logVectorSkip(tb testing.TB) {
	tb.Helper()
	if !vectorKernel {
		tb.Log("no AVX2 on this CPU: the vector convolution kernel is skipped")
	}
}

// checkKernelsBitExact runs every production kernel on (a, b), with a
// nil arena and with ar, against its reference loop; each direct
// convolution kernel runs separately, as do the public ConvolveInto,
// which picks between them, and SubConvolveInto.
func checkKernelsBitExact(t *testing.T, label string, ar *Arena, a, b *Dist) {
	t.Helper()
	ar.Reset()
	want := refConvolve(a, b)
	pa, pb := slices.Clone(a.p), slices.Clone(b.p)
	for _, k := range directKernels() {
		bitIdentical(t, label+" convolve/"+k.name, want, k.run(nil, a, b))
		bitIdentical(t, label+" convolve/"+k.name+"/arena", want, k.run(ar, a, b))
		// The vector kernel pads a copy of the longer operand and
		// peels a subnormal lead bin from that copy, never from the
		// operand; with a one-bin shorter operand it reads the longer
		// one in place.
		if !sameBits(pa, a.p) || !sameBits(pb, b.p) {
			t.Fatalf("%s convolve/%s: an operand changed", label, k.name)
		}
	}
	bitIdentical(t, label+" convolve/dispatch", want, ConvolveInto(nil, a, b))
	bitIdentical(t, label+" convolve/dispatch/arena", want, ConvolveInto(ar, a, b))
	wantSub := refConvolve(a, b.Neg())
	bitIdentical(t, label+" subconvolve", wantSub, SubConvolveInto(nil, a, b))
	bitIdentical(t, label+" subconvolve/arena", wantSub, SubConvolveInto(ar, a, b))
	bitIdentical(t, label+" max", refMaxIndep(a, b), MaxIndep(a, b))
	bitIdentical(t, label+" max/arena", refMaxIndep(a, b), MaxIndepInto(ar, a, b))
	bitIdentical(t, label+" min", refMinIndep(a, b), MinIndep(a, b))
	bitIdentical(t, label+" min/arena", refMinIndep(a, b), MinIndepInto(ar, a, b))
	for _, pair := range [][2]*Dist{{a, b}, {b, a}} {
		want, got := refMaxPercentileGap(pair[0], pair[1]), MaxPercentileGap(pair[0], pair[1])
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("%s gap: want %x, got %x", label, want, got)
		}
	}
}

// sameBits reports whether two mass vectors hold the same bits.
func sameBits(p, q []float64) bool {
	return slices.EqualFunc(p, q, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}

// withLead returns a copy of d whose first bin holds v.
func withLead(d *Dist, v float64) *Dist {
	p := slices.Clone(d.p)
	p[0] = v
	return &Dist{dt: d.dt, i0: d.i0, p: p}
}

// shapedDist builds an n-bin distribution at offset i0 whose masses
// come from rng, renormalized to 1; zeroEvery > 0 zeroes every
// zeroEvery-th interior bin to exercise zero rows.
func shapedDist(rng *rand.Rand, dt float64, i0, n, zeroEvery int) *Dist {
	p := make([]float64, n)
	total := 0.0
	for k := range p {
		if zeroEvery > 0 && k > 0 && k < n-1 && k%zeroEvery == 0 {
			continue
		}
		p[k] = 0.05 + rng.Float64()
		total += p[k]
	}
	for k := range p {
		p[k] /= total
	}
	return &Dist{dt: dt, i0: i0, p: p}
}

// nearOneDist returns an n-bin distribution whose masses sum to 1+off
// exactly as the kernels accumulate them (ascending), for probing the
// snap-to-1 rule at its probEps edge.
func nearOneDist(dt float64, i0, n int, off float64) *Dist {
	p := make([]float64, n)
	for k := range p {
		p[k] = 1 / float64(n)
	}
	s := 0.0
	for _, v := range p[:n-1] {
		s += v
	}
	p[n-1] = (1 + off) - s
	return &Dist{dt: dt, i0: i0, p: p}
}

// TestKernelsMatchReferenceLoops is the seeded table of shapes the
// blocked, vector and segmented kernels must reproduce bit for bit:
// one-bin operands; the edge-delay × arrival shapes the SSTA passes
// feed, a shorter operand of 1–19 bins (and 24 and 34, c880's widest
// delays at 600 bins) against a longer one of up to 300, so output
// lengths take every residue modulo 4 and 16; supports ending on the
// same bin; last bins within probEps of 1; wide pairs of 768 to
// 1600 bins, the widths wide grids reach; and arrivals whose first bin
// is subnormal, which the vector kernel adds as a column apart from
// its rows. At minimum widths c1908 at 600 bins convolves delays of
// 4–16 bins with arrivals of 76 (the median; 141 at most), c6288 at
// 1600 bins delays of 4–19 with arrivals of 148 (212 at most).
func TestKernelsMatchReferenceLoops(t *testing.T) {
	logVectorSkip(t)
	rng := rand.New(rand.NewSource(16))
	ar := NewArena()
	const dt = 0.01
	type pair struct {
		name string
		a, b *Dist
	}
	var cases []pair
	one := &Dist{dt: dt, i0: 3, p: []float64{1}}
	for _, n := range []int{1, 2, 3, 4, 5, 9, 60} {
		d := shapedDist(rng, dt, 0, n, 0)
		cases = append(cases,
			pair{fmt.Sprintf("one-bin x %d", n), one, d},
			pair{fmt.Sprintf("%d x one-bin", n), d, one},
			pair{fmt.Sprintf("one-bin inside %d", n), &Dist{dt: dt, i0: n / 2, p: []float64{1}}, d})
	}
	for _, dn := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 24, 34} {
		for _, an := range []int{19, 20, 33, 50, 77, 84, 100, 125, 130, 148, 150, 200, 255, 300} {
			delay := shapedDist(rng, dt, rng.Intn(5), dn, 0)
			arr := shapedDist(rng, dt, 40+rng.Intn(20), an, 0)
			zeroed := shapedDist(rng, dt, 40, an, 3)
			cases = append(cases,
				pair{fmt.Sprintf("delay%d x arrival%d", dn, an), delay, arr},
				pair{fmt.Sprintf("arrival%d x delay%d", an, dn), arr, delay},
				pair{fmt.Sprintf("zero-rows delay%d x arrival%d", dn, an), shapedDist(rng, dt, 2, dn, 2), zeroed})
			if an > dn {
				// Overlapping arrivals: the max/min merge shapes.
				cases = append(cases, pair{fmt.Sprintf("arrival%d vs shifted", an), arr, shapedDist(rng, dt, arr.i0+dn, an-dn, 0)})
			}
		}
	}
	for _, n := range []int{2, 5, 8, 77} {
		for _, shift := range []int{0, 1, 3} {
			a := shapedDist(rng, dt, 10, n+shift, 0)
			b := shapedDist(rng, dt, 10+shift, n, 0)
			cases = append(cases, pair{fmt.Sprintf("same end %d shift %d", n, shift), a, b})
		}
	}
	for _, off := range []float64{0, 0.5e-12, -0.5e-12, 0.99e-12, -0.99e-12, 2e-12, -2e-12, 1e-15} {
		for _, n := range []int{3, 9, 60} {
			a := nearOneDist(dt, 5, n, off)
			b := nearOneDist(dt, 5+n/3, n, -off)
			c := nearOneDist(dt, 5+n/3, n/2+1, off)
			cases = append(cases,
				pair{fmt.Sprintf("near-one %g n%d", off, n), a, b},
				pair{fmt.Sprintf("near-one %g n%d same end", off, n), a, nearOneDist(dt, 5+n-2, 2, off)},
				pair{fmt.Sprintf("near-one %g n%d nested", off, n), a, c})
		}
	}
	for _, w := range [][2]int{{768, 768}, {769, 1234}, {1600, 1600}} {
		a := shapedDist(rng, dt, rng.Intn(41)-20, w[0], 0)
		b := shapedDist(rng, dt, rng.Intn(41)-20, w[1], 0)
		cases = append(cases, pair{fmt.Sprintf("wide %d x %d", w[0], w[1]), a, b})
	}
	// Subnormal lead bins: the smallest and largest subnormals and one
	// between, on the longer operand of every shape below. A shorter
	// operand of one bin takes no column (the kernel reads the longer
	// operand unpadded); one with a tiny first mass underflows its
	// product to +0; one with zero rows multiplies +0; and masses of 2
	// and more take the hardware multiply.
	for _, lead := range []float64{0x1p-1074, 0x1.8p-1060, math.Float64frombits(1<<52 - 1)} {
		for _, an := range []int{77, 148} {
			arr := withLead(shapedDist(rng, dt, 40, an, 0), lead)
			for _, dn := range []int{1, 2, 5, 6, 16, 34} {
				delay := shapedDist(rng, dt, 3, dn, 0)
				cases = append(cases,
					pair{fmt.Sprintf("delay%d x lead %x arrival%d", dn, lead, an), delay, arr},
					pair{fmt.Sprintf("lead %x arrival%d x delay%d", lead, an, dn), arr, delay})
				if dn > 1 {
					cases = append(cases, pair{fmt.Sprintf("lead %x delay%d x lead arrival%d", lead, dn, an), withLead(delay, lead), arr})
				}
			}
			cases = append(cases,
				pair{fmt.Sprintf("zero-rows delay x lead %x arrival%d", lead, an), shapedDist(rng, dt, 2, 7, 2), arr},
				pair{fmt.Sprintf("tiny delay x lead %x arrival%d", lead, an), withLead(shapedDist(rng, dt, 2, 5, 0), 0x1p-1000), arr},
				pair{fmt.Sprintf("heavy delay x lead %x arrival%d", lead, an), &Dist{dt: dt, i0: 1, p: []float64{0.5, 2, 3.75, 1e300, 1}}, arr})
		}
		for _, n := range []int{6, 40} {
			a, b := shapedDist(rng, dt, 5, n, 0), withLead(shapedDist(rng, dt, 9, n, 0), lead)
			cases = append(cases,
				pair{fmt.Sprintf("equal %d x lead %x", n, lead), a, b},
				pair{fmt.Sprintf("lead %x x equal %d", lead, n), b, a})
		}
	}
	for _, c := range cases {
		checkKernelsBitExact(t, c.name, ar, c.a, c.b)
	}
}

// TestMulSubnormalMatchesHardware pins the integer multiply behind the
// vector kernel's lead column to the hardware product, bit for bit: a
// seeded sweep of subnormal y against x of every exponent field up to
// 1024 (x < 4, so subnormal x and the x ≥ 2 fallback are swept too),
// then hand-picked ties to even, products a hair off a tie, underflows
// to +0, products that round up to 2^-1022, and x = 0, 1 and ≥ 2.
func TestMulSubnormalMatchesHardware(t *testing.T) {
	check := func(x, y float64) {
		t.Helper()
		got, want := mulSubnormal(x, y), x*y
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("mulSubnormal(%x, %x) = %x (bits %#x), hardware %x (bits %#x)",
				x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(29))
	for ex := uint64(0); ex <= 1024; ex++ {
		for range 64 {
			// Clearing a random number of low mantissa bits makes exact
			// ties and short products likely; a subnormal's mantissa of
			// random length spans the whole range below 2^-1022.
			fx := rng.Uint64() >> 12 &^ (1<<rng.Intn(53) - 1)
			my := rng.Uint64() >> (12 + rng.Intn(52)) &^ (1<<rng.Intn(20) - 1)
			if my == 0 {
				my = 1
			}
			check(math.Float64frombits(ex<<52|fx), math.Float64frombits(my))
		}
	}
	ulp := math.Float64frombits(1)
	maxSub := math.Float64frombits(1<<52 - 1)
	for _, c := range []struct {
		x, y, want float64
	}{
		{1.5, ulp, 2 * ulp},              // 1.5 units: tie, up to even
		{1.5, 3 * ulp, 4 * ulp},          // 4.5: tie, down to even
		{1.25, 2 * ulp, 2 * ulp},         // 2.5: tie, down to even
		{0.75, 2 * ulp, 2 * ulp},         // 1.5: tie, up to even
		{0.5, ulp, 0},                    // 0.5: tie, down to +0
		{0.5, 3 * ulp, 2 * ulp},          // 1.5: tie, up to even
		{0x1.0000000000001p-1, ulp, ulp}, // half a unit and 2^-53: up
		{0x1.fffffffffffffp-2, ulp, 0},   // half a unit less 2^-54: down
		{0.25, ulp, 0},                   // below half a unit
		{0x1p-60, maxSub, 0},             // far below a unit
		{0x1p-1022, maxSub, 0},           // least normal x
		{1 + 0x1p-52, maxSub, 0x1p-1022}, // rounds up to the least normal
		{0x1.fffffffffffffp0, maxSub, 0x1.ffffffffffffdp-1022},
		{1, ulp, ulp},
		{1, maxSub, maxSub},
		{0, maxSub, 0},
		{2, maxSub, 2 * maxSub}, // x ≥ 2: the hardware multiply
		{3.5, ulp, 3.5 * ulp},
		{0x1p1000, 0x1.8p-1060, 0x1.8p-60},
		{math.Inf(1), ulp, math.Inf(1)},
		{ulp, maxSub, 0}, // subnormal x: the hardware multiply
	} {
		check(c.x, c.y)
		if got := mulSubnormal(c.x, c.y); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("mulSubnormal(%x, %x) = %x, want %x", c.x, c.y, got, c.want)
		}
	}
	check(math.NaN(), maxSub)
}

// fuzzDist decodes a distribution from fuzz bytes: a signed offset
// byte, then one byte per bin (a byte of 0 leaves that bin empty),
// renormalized to unit mass and trimmed. off perturbs the total so the
// last bin can land near the snap-to-1 edge.
func fuzzDist(data []byte, off float64) *Dist {
	if len(data) < 2 {
		return nil
	}
	i0 := int(int8(data[0]))
	p := make([]float64, len(data)-1)
	total := 0.0
	for k, v := range data[1:] {
		p[k] = float64(v) / 255
		total += p[k]
	}
	if total == 0 {
		return nil
	}
	s := 0.0
	last := -1
	for k := range p {
		p[k] /= total
		if p[k] > 0 {
			last = k
		}
	}
	for _, v := range p[:last] {
		s += v
	}
	if v := (1 + off) - s; v > 0 {
		p[last] = v
	}
	return trim(0.01, i0, p)
}

// FuzzKernelsBitExact demands that the blocked and vector
// convolutions, the segmented max/min merges and the integer-gap
// MaxPercentileGap match their reference loops bit for bit on
// arbitrary operands, among them operands whose first bin is
// subnormal.
func FuzzKernelsBitExact(f *testing.F) {
	logVectorSkip(f)
	long := make([]byte, 41)
	for k := range long {
		long[k] = byte(3 + 7*k)
	}
	f.Add([]byte{2, 9, 40, 90, 200, 90, 40, 9, 4, 2, 1, 1, 3, 5, 8, 13, 21, 34, 55, 89}, long, uint16(20000), uint64(0))
	f.Add([]byte{0, 10, 200, 40, 1}, []byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint16(0), uint64(0))
	f.Add([]byte{250, 255}, []byte{0, 1, 0, 0, 1}, uint16(3), uint64(0))
	f.Add([]byte{5, 9, 9, 9, 9, 9, 9, 9}, []byte{5, 9, 9, 9, 9, 9, 9, 9}, uint16(40000), uint64(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{7, 255, 128, 64}, uint16(65535), uint64(0))
	f.Add([]byte{0, 10, 200, 40, 1}, long, uint16(32768), uint64(1<<63|1<<40))
	f.Add(long, []byte{0, 10, 200, 40, 1}, uint16(32768), uint64(1<<52-1))
	f.Add([]byte{0, 10, 200, 40, 1}, long, uint16(32768), uint64(3))
	f.Fuzz(func(t *testing.T, da, db []byte, offBits uint16, lead uint64) {
		// offBits spans ±2e-12 around an exact unit total, straddling
		// probEps on both sides.
		off := (float64(offBits) - 32768) / 32768 * 2e-12
		a, b := fuzzDist(da, off), fuzzDist(db, -off)
		if a == nil || b == nil {
			return
		}
		// Nonzero low 52 bits of lead make them the subnormal first
		// bin of a, or of b when its top bit is set, unless that
		// operand has one bin, which would leave it no normal mass.
		d := a
		if lead>>63 != 0 {
			d = b
		}
		if m := lead & (1<<52 - 1); m != 0 && len(d.p) > 1 {
			d.p[0] = math.Float64frombits(m)
		}
		checkKernelsBitExact(t, "fuzz", NewArena(), a, b)
	})
}
