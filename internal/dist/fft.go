// FFT convolution fast path. The direct kernel in dist.go is O(n·m)
// and exact; for wide supports this file provides an O(n log n)
// real-to-complex radix-2 FFT route. ConvolveInto takes it only when
// BOTH operand supports span at least FFTMinSupport bins, so the route
// is a pure function of the operands, and every configuration on a
// grid at or below the default 600-bin budget — including the golden
// traces at 400 bins — keeps the direct kernel bit for bit. FFT
// results are cleaned up to satisfy the package invariants the direct
// kernel provides structurally: negatives clamp to zero, the end bins
// are overwritten with the exact single-product values (so support
// bounds match the direct kernel exactly), and total mass is
// renormalized to sum(a)·sum(b).
package dist

import (
	"math"
	"sync/atomic"
)

// FFTMinSupport is the smallest support width, in bins, at which
// ConvolveInto takes the FFT route. It is fixed for exactness, not
// tuned for speed: SuggestDT sets dt = 1.35·maxDelay/bins and supports
// span at most ~1.3·maxDelay, so they top out near 0.96·bins ≈ 578
// bins on the default 600-bin grid and every such grid stays on the
// direct kernel. The FFT already wins below the threshold (equal-width
// operands on a 2-vCPU Xeon: 130µs direct vs 42µs FFT at 512 bins,
// 307µs vs 93µs at 768), so exactness, not speed, draws the line.
const FFTMinSupport = 768

// useFFT decides the route for operand supports of na and nb bins.
// The predicate is on the SMALLER operand: the direct kernel costs
// min·max multiply-adds, so a convolution with one narrow operand is
// already cheap and the FFT's N log N over the padded size would lose.
func useFFT(na, nb int) bool { return min(na, nb) >= FFTMinSupport }

// fftTable holds the precomputed bit-reversal permutation and twiddle
// factors for one transform size. Tables are built once per size and
// cached process-wide (sizes are powers of two, so the cache tops out
// at a few dozen entries); warm lookups are a single atomic load.
type fftTable struct {
	n        int
	rev      []int32   // bit-reversal permutation of 0..n-1
	cos, sin []float64 // cos/sin(2π·j/n) for j < n/2
}

// fftTables caches one table per log2(size).
var fftTables [32]atomic.Pointer[fftTable]

// tableFor returns the cached table for transform size n (a power of
// two), building it on first use.
func tableFor(n int) *fftTable {
	lg := 0
	for 1<<lg < n {
		lg++
	}
	if t := fftTables[lg].Load(); t != nil {
		return t
	}
	t := &fftTable{
		n:   n,
		rev: make([]int32, n),
		cos: make([]float64, n/2),
		sin: make([]float64, n/2),
	}
	for i := 1; i < n; i++ {
		t.rev[i] = t.rev[i>>1]>>1 | int32(i&1)<<(lg-1)
	}
	for j := 0; j < n/2; j++ {
		theta := 2 * math.Pi * float64(j) / float64(n)
		t.cos[j] = math.Cos(theta)
		t.sin[j] = math.Sin(theta)
	}
	fftTables[lg].CompareAndSwap(nil, t)
	return fftTables[lg].Load()
}

// fft runs an in-place iterative radix-2 Cooley–Tukey transform over
// the split complex array (re, im), both of length t.n. invert=false
// computes the forward DFT with kernel e^(-2πi·jk/n); invert=true the
// unscaled inverse (the caller folds the 1/n into its own pass).
func fft(re, im []float64, t *fftTable, invert bool) {
	n := t.n
	for i, j := range t.rev {
		if int32(i) < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for base := 0; base < n; base += size {
			tw := 0
			for off := base; off < base+half; off++ {
				wr := t.cos[tw]
				wi := -t.sin[tw]
				if invert {
					wi = -wi
				}
				j := off + half
				xr := re[j]*wr - im[j]*wi
				xi := re[j]*wi + im[j]*wr
				re[j] = re[off] - xr
				im[j] = im[off] - xi
				re[off] += xr
				im[off] += xi
				tw += step
			}
		}
	}
}

// convolveFFTInto computes the same convolution as convolveDirectInto
// via one forward and one inverse complex FFT (the two real inputs
// share a single forward transform: pack z = a + i·b, recover both
// spectra from conjugate symmetry, multiply pointwise, invert). The
// two scratch vectors live in the arena, so the warm path performs
// zero allocations once the twiddle tables for the padded size exist.
func convolveFFTInto(ar *Arena, a, b *Dist) *Dist {
	na, nb := len(a.p), len(b.p)
	n := na + nb - 1
	N := 1
	for N < n {
		N <<= 1
	}
	t := tableFor(N)
	zre := scratchFloats(ar, N)
	zim := scratchFloats(ar, N)
	copy(zre, a.p) // tails beyond the supports stay zero (scratch is cleared)
	copy(zim, b.p)
	fft(zre, zim, t, false)

	// Unpack and multiply in conjugate-symmetric pairs: with A and B
	// the spectra of the real inputs, Z[k] = A[k] + i·B[k], so
	//   A[k] = (Z[k] + conj(Z[N-k])) / 2
	//   B[k] = (Z[k] - conj(Z[N-k])) / (2i)
	// and the product spectrum C = A·B satisfies C[N-k] = conj(C[k]).
	// k = 0 (and k = N/2 for N ≥ 2) are purely real: C = Z.re · Z.im.
	zre[0], zim[0] = zre[0]*zim[0], 0
	if N >= 2 {
		h := N / 2
		zre[h], zim[h] = zre[h]*zim[h], 0
		for k := 1; k < h; k++ {
			m := N - k
			ar1, ai1 := zre[k], zim[k]
			ar2, ai2 := zre[m], zim[m]
			reA, imA := (ar1+ar2)/2, (ai1-ai2)/2
			reB, imB := (ai1+ai2)/2, -(ar1-ar2)/2
			cr := reA*reB - imA*imB
			ci := reA*imB + imA*reB
			zre[k], zim[k] = cr, ci
			zre[m], zim[m] = cr, -ci
		}
	}
	fft(zre, zim, t, true)

	out := zre[:n]
	// Clean up to the direct kernel's structural guarantees. The end
	// bins are single products (only one index pair contributes), so
	// overwrite them with the exact values — this pins the trimmed
	// support bounds to exactly match the direct route. Interior
	// rounding noise can dip a hair below zero; clamp it.
	inv := 1 / float64(N)
	totalA, totalB := 0.0, 0.0
	for _, v := range a.p {
		totalA += v
	}
	for _, v := range b.p {
		totalB += v
	}
	out[0] = a.p[0] * b.p[0]
	out[n-1] = a.p[na-1] * b.p[nb-1]
	sum := out[0] + out[n-1]
	if n == 1 {
		sum = out[0]
	}
	for i := 1; i < n-1; i++ {
		v := out[i] * inv
		if v < 0 {
			v = 0
		}
		out[i] = v
		sum += v
	}
	// Renormalize the total to the algebraic value sum(a)·sum(b): the
	// FFT's aggregate rounding (~ulps·log N) lands well inside probEps
	// and this removes even that drift from cumulative queries.
	if target := totalA * totalB; sum > 0 && sum != target {
		scale := target / sum
		for i := range out {
			out[i] *= scale
		}
	}
	return trimInto(ar, a.dt, a.i0+b.i0, out)
}
