package dist

// Hooks for the external tests in this directory (package dist_test),
// which feed the kernels operands from packages that import dist.

// RefConvolve is the one-row reference convolution, refConvolve.
var RefConvolve = refConvolve

// TakesLeadColumn reports whether the vector kernel adds the first bin
// of a ⊛ b's longer operand as a column: the shorter operand has more
// than one bin and that first bin is subnormal.
func TakesLeadColumn(a, b *Dist) bool {
	x, y := a.p, b.p
	if len(x) > len(y) {
		x, y = y, x
	}
	return len(x) > 1 && subnormal(y[0])
}
