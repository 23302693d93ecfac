package dist

import (
	"fmt"
	"math"
	"testing"
)

// kernelOperands builds a representative operand pair whose supports
// span roughly `bins` bins each — the shape the SSTA forward pass feeds
// the kernels at the default 600-bin grid.
func kernelOperands(b *testing.B, bins int) (*Dist, *Dist) {
	b.Helper()
	// sigma chosen so the ±3σ support covers ~bins grid steps.
	dt := 1.0 / float64(bins)
	x := mustGauss(b, dt, 0.50, 0.50/6)
	y := mustGauss(b, dt, 0.55, 0.55/6)
	return x, y
}

// BenchmarkDistKernels measures the numeric core at representative bin
// counts, in both the allocating and the arena (Into) forms, and at the
// edge-delay × arrival shapes the optimizer runs.
// Run with -benchmem: the Into forms must show 0 allocs/op warm.
func BenchmarkDistKernels(b *testing.B) {
	for _, bins := range []int{100, 400, 1600} {
		x, y := kernelOperands(b, bins)
		ar := NewArena()
		kernels := []struct {
			name  string
			alloc func() *Dist
			into  func() *Dist
		}{
			{"Convolve", func() *Dist { return Convolve(x, y) }, func() *Dist { return ConvolveInto(ar, x, y) }},
			{"MaxIndep", func() *Dist { return MaxIndep(x, y) }, func() *Dist { return MaxIndepInto(ar, x, y) }},
			{"MinIndep", func() *Dist { return MinIndep(x, y) }, func() *Dist { return MinIndepInto(ar, x, y) }},
			{"SubConvolve", func() *Dist { return SubConvolve(x, y) }, func() *Dist { return SubConvolveInto(ar, x, y) }},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/bins%d/alloc", k.name, bins), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.alloc()
				}
			})
			b.Run(fmt.Sprintf("%s/bins%d/into", k.name, bins), func(b *testing.B) {
				b.ReportAllocs()
				ar.Reset()
				k.into() // warm the arena before timing
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ar.Reset()
					k.into()
				}
			})
		}
	}
	// The operand shapes the accelerated optimizer's fronts feed the
	// kernels: an edge delay of 5–9 bins convolved with an arrival of
	// 77–120 bins, the max and min of two overlapping fanin terms of
	// that width, and the perturbation bound of an arrival against a
	// copy shifted one bin earlier.
	const dt = 0.01
	for _, s := range []struct{ delay, arr int }{{5, 77}, {7, 100}, {9, 120}} {
		delay := bell(dt, 3, s.delay)
		arr := bell(dt, 40, s.arr)
		other := bell(dt, 40+s.delay, s.arr-s.delay)
		pert := bell(dt, 39, s.arr)
		ar := NewArena()
		kernels := []struct {
			name string
			run  func()
		}{
			{"Convolve", func() { ConvolveInto(ar, delay, arr) }},
			{"MaxIndep", func() { MaxIndepInto(ar, arr, other) }},
			{"MinIndep", func() { MinIndepInto(ar, arr, other) }},
			{"MaxPercentileGap", func() { MaxPercentileGap(arr, pert) }},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/delay%dxarr%d/into", k.name, s.delay, s.arr), func(b *testing.B) {
				b.ReportAllocs()
				ar.Reset()
				k.run() // warm the arena before timing
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ar.Reset()
					k.run()
				}
			})
		}
	}
	// Each direct-convolution kernel on its own, at the edge-delay ×
	// arrival shapes of the explore workload's 1600-bin c6288 grid
	// (delays of 6–16 bins against arrivals of 148–200): the portable
	// loop on every CPU, the AVX2 kernel where the CPU has it. Both
	// give the same bits; only the time differs.
	for _, s := range []struct{ delay, arr int }{{6, 148}, {8, 200}, {16, 200}} {
		delay := bell(dt, 3, s.delay)
		arr := bell(dt, 40, s.arr)
		for _, k := range directKernels() {
			ar := NewArena()
			b.Run(fmt.Sprintf("Convolve/%s/delay%dxarr%d/into", k.name, s.delay, s.arr), func(b *testing.B) {
				b.ReportAllocs()
				ar.Reset()
				k.run(ar, delay, arr) // warm the arena before timing
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ar.Reset()
					k.run(ar, delay, arr)
				}
			})
		}
	}
}

// bell returns an n-bin discretized bell curve starting at grid index
// i0: the kernels' operand shape with an exact support width.
func bell(dt float64, i0, n int) *Dist {
	p := make([]float64, n)
	mid, sigma := float64(n-1)/2, float64(n)/6
	total := 0.0
	for k := range p {
		z := (float64(k) - mid) / sigma
		p[k] = math.Exp(-z * z / 2)
		total += p[k]
	}
	for k := range p {
		p[k] /= total
	}
	return &Dist{dt: dt, i0: i0, p: p}
}

// BenchmarkPercentile measures the cached quantile query against a
// fresh distribution (first query pays the cumulative-sum build) and a
// warm one (binary search only) — the satellite fix for timingreport's
// per-gate slack table.
func BenchmarkPercentile(b *testing.B) {
	x, y := kernelOperands(b, 1600)
	d := Convolve(x, y)
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		d.Percentile(0.99) // build the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Percentile(0.99)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := Convolve(x, y)
			b.StartTimer()
			fresh.Percentile(0.99)
		}
	})
}
