package mat

// Reference multiply kernels: the textbook triple loop with one
// accumulator per output element and strictly increasing k, i.e. a
// single well-defined floating-point summation order. They are
// deliberately unblocked, untiled, and serial. They are the float64
// products themselves (mul.go runs them after its shape checks), and
// the oracle of the float32 kernels, which reorder summation for
// register tiling and are therefore validated against these to epsilon
// tolerance (mul32_equiv_test.go, kernel32_test.go). The references are
// pinned bit-identically by TestRefKernelsBitIdentical.

// refMulTo computes dst = a*b with the reference summation order.
func refMulTo(dst, a, b *Dense) {
	checkDst("refMulTo", dst, a.Rows, b.Cols)
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := dst.Row(i)
		for k, av := range ar {
			br := b.Row(k)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
}

// refMulATBAcc accumulates dst += aᵀ*b with the reference summation
// order.
func refMulATBAcc(dst, a, b *Dense) {
	checkDst("refMulATBAcc", dst, a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		ar := a.Row(k)
		br := b.Row(k)
		for i, av := range ar {
			or := dst.Row(i)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
}

// refMulATBTo computes dst = aᵀ*b with the reference summation order.
func refMulATBTo(dst, a, b *Dense) {
	checkDst("refMulATBTo", dst, a.Cols, b.Cols)
	dst.Zero()
	refMulATBAcc(dst, a, b)
}

// refMulABTTo computes dst = a*bᵀ with the reference summation order.
func refMulABTTo(dst, a, b *Dense) {
	checkDst("refMulABTTo", dst, a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			br := b.Row(j)
			var s float64
			for k, av := range ar {
				s += av * br[k]
			}
			or[j] = s
		}
	}
}
