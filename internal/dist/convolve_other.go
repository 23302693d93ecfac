//go:build !amd64

package dist

// vectorKernel is false off amd64: ConvolveInto always runs the
// portable blocked loop there.
const vectorKernel = false

// convolveAVX2 exists only on amd64; ConvolveInto never reaches
// this stub, and the tests skip the vector kernel where vectorKernel is
// false.
func convolveAVX2(out, x, ypad []float64) {
	panic("dist: the AVX2 convolution kernel runs only on amd64")
}
