package dist

// vectorKernel reports whether ConvolveInto runs the AVX2 kernel
// (convolveVectorInto). It is read from the CPU once, at start-up, and
// nothing else sets it: no option, build tag or environment variable
// selects a kernel, and both kernels give every bin bit for bit.
var vectorKernel = readCPU().avx2()

// convolveAVX2 is the vector loop of convolveVectorInto (see
// convolve_amd64.s): out[k] = Σ x[i]·ypad[k+len(x)-1-i], summed over i
// ascending from +0 with separate multiplies and adds.
//
//go:noescape
func convolveAVX2(out, x, ypad []float64)

// cpuid executes CPUID for leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register in which the OS declares which
// register states it saves. It faults unless CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// The CPUID and XCR0 bits the AVX2 kernel needs (Intel SDM vol. 1,
// 14.3 and 14.7.1).
const (
	cpuid1OSXSAVE = 1 << 27 // CPUID.1:ECX, the OS enabled XGETBV
	cpuid1AVX     = 1 << 28 // CPUID.1:ECX
	cpuid7AVX2    = 1 << 5  // CPUID.(7,0):EBX
	xcr0SSE       = 1 << 1  // XCR0: the OS saves XMM state
	xcr0AVX       = 1 << 2  // XCR0: the OS saves the upper YMM halves
)

// cpuFeatures is the CPUID and XGETBV state the kernel choice reads.
type cpuFeatures struct {
	maxLeaf uint32 // CPUID.0:EAX, the highest basic leaf
	ecx1    uint32 // CPUID.1:ECX
	ebx7    uint32 // CPUID.(7,0):EBX, zero when maxLeaf < 7
	xcr0    uint32 // XCR0's low word, zero unless OSXSAVE is set
}

// readCPU reads the leaves avx2 looks at, each only where the CPU
// defines it.
func readCPU() cpuFeatures {
	var f cpuFeatures
	f.maxLeaf, _, _, _ = cpuid(0, 0)
	if f.maxLeaf < 1 {
		return f
	}
	_, _, f.ecx1, _ = cpuid(1, 0)
	if f.ecx1&cpuid1OSXSAVE != 0 {
		f.xcr0, _ = xgetbv()
	}
	if f.maxLeaf >= 7 {
		_, f.ebx7, _, _ = cpuid(7, 0)
	}
	return f
}

// avx2 reports whether AVX2 instructions may run: the CPU has AVX and
// AVX2, and the OS has enabled XGETBV and saves both XMM and YMM state
// across context switches.
func (f cpuFeatures) avx2() bool {
	const ecx1 = cpuid1OSXSAVE | cpuid1AVX
	const xcr0 = xcr0SSE | xcr0AVX
	return f.maxLeaf >= 7 &&
		f.ecx1&ecx1 == ecx1 &&
		f.xcr0&xcr0 == xcr0 &&
		f.ebx7&cpuid7AVX2 != 0
}
