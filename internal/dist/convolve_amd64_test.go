package dist

import "testing"

// TestVectorKernelDispatch pins the kernel choice to the CPU: the
// direct convolution runs the AVX2 kernel exactly when CPUID and
// XGETBV report that the CPU has AVX and AVX2 and that the OS saves
// XMM and YMM state, and any one missing piece selects the portable
// loop.
func TestVectorKernelDispatch(t *testing.T) {
	f := readCPU()
	if vectorKernel != f.avx2() {
		t.Fatalf("vectorKernel = %v, but CPUID/XGETBV read %+v (avx2 %v)", vectorKernel, f, f.avx2())
	}
	t.Logf("CPUID/XGETBV: %+v; vector kernel selected: %v", f, vectorKernel)

	full := cpuFeatures{
		maxLeaf: 7,
		ecx1:    cpuid1OSXSAVE | cpuid1AVX,
		ebx7:    cpuid7AVX2,
		xcr0:    xcr0SSE | xcr0AVX,
	}
	if !full.avx2() {
		t.Fatalf("%+v: every AVX2 prerequisite set, yet avx2() is false", full)
	}
	without := func(edit func(*cpuFeatures)) cpuFeatures {
		g := full
		edit(&g)
		return g
	}
	for _, c := range []struct {
		name string
		f    cpuFeatures
	}{
		{"highest leaf below 7", without(func(g *cpuFeatures) { g.maxLeaf = 6 })},
		{"no OSXSAVE", without(func(g *cpuFeatures) { g.ecx1 &^= cpuid1OSXSAVE })},
		{"no AVX", without(func(g *cpuFeatures) { g.ecx1 &^= cpuid1AVX })},
		{"no AVX2", without(func(g *cpuFeatures) { g.ebx7 &^= cpuid7AVX2 })},
		{"OS does not save XMM state", without(func(g *cpuFeatures) { g.xcr0 &^= xcr0SSE })},
		{"OS does not save YMM state", without(func(g *cpuFeatures) { g.xcr0 &^= xcr0AVX })},
	} {
		if c.f.avx2() {
			t.Errorf("%s (%+v): avx2() is true, want the portable kernel", c.name, c.f)
		}
	}
}
