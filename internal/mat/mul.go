package mat

import "fmt"

// Float64 multiply entry points. Bellamy trains and serves in float32
// (mul32.go), and Ernest's NNLS baseline needs only Dense, NewDense and
// Dot, so no workload issues these products: each checks its shapes and
// runs the textbook loop of mul_ref.go, on every platform and kernel
// family. They start no goroutine and hold no lock, so concurrent
// callers sharing read-only operands need no coordination.

// MulTo computes dst = a*b, fully overwriting dst. dst must be
// a.Rows x b.Cols and must not alias a or b.
func MulTo(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTo inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MulTo", dst, a.Rows, b.Cols)
	refMulTo(dst, a, b)
}

// MulATBTo computes dst = aᵀ*b, fully overwriting dst.
func MulATBTo(dst, a, b *Dense) {
	checkDst("MulATBTo", dst, a.Cols, b.Cols)
	dst.Zero()
	MulATBAcc(dst, a, b)
}

// MulATBAcc accumulates dst += aᵀ*b without materializing the
// transpose.
func MulATBAcc(dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulATB row mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MulATBAcc", dst, a.Cols, b.Cols)
	refMulATBAcc(dst, a, b)
}

// MulABTTo computes dst = a*bᵀ without materializing the transpose,
// fully overwriting dst.
func MulABTTo(dst, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulABT col mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MulABTTo", dst, a.Rows, b.Rows)
	refMulABTTo(dst, a, b)
}

func checkDst(op string, dst *Dense, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("mat: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}
