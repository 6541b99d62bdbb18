package mat

// Reference multiply kernels: the bit-exact oracle for the production
// kernels. Each kernel is the textbook triple loop with one accumulator
// per output element and strictly increasing k, i.e. a single
// well-defined floating-point summation order. They are deliberately
// unblocked, untiled, and serial.
//
// The production kernels (kernel.go, kernel_asm.go) reorder summation
// for register tiling and instruction-level parallelism, so
// they are validated against these references to epsilon tolerance
// (mul_equiv_test.go); the references themselves are pinned
// bit-identically by the property tests in inplace_test.go. They are
// kept in a production file, not a test file, so any future kernel —
// or a debugging session questioning the fast path — has the oracle at
// hand.

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
