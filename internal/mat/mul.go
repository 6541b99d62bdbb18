package mat

import "fmt"

// Float64 multiply dispatch, for the baselines' solvers and the
// benchmark's GEMM rungs; the network's float32 products are mul32.go's.
// Every product runs its direct register-tiled kernel (kernel.go) over
// the whole output, on the calling goroutine: the package starts no
// goroutine and holds no lock, so concurrent callers sharing read-only
// operands need no coordination. Training spreads over cores one level
// up, by sharding the mini-batch (core.Pretrain), not inside a product.
//
// The kernels change floating-point summation order relative to the
// reference kernels in mul_ref.go, so equivalence is specified to
// epsilon tolerance (see mul_equiv_test.go); the reference kernels
// remain the bit-exact oracle.

// Mul returns the matrix product a*b.
func Mul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	MulTo(out, a, b)
	return out
}

// MulTo computes dst = a*b, fully overwriting dst. dst must be
// a.Rows x b.Cols and must not alias a or b.
func MulTo(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MulTo", dst, a.Rows, b.Cols)
	dst.Zero()
	if a.Rows == 0 || a.Cols == 0 || b.Cols == 0 {
		return
	}
	mulRows(dst, a, b)
}

// MulATBTo computes dst = aᵀ*b, fully overwriting dst.
func MulATBTo(dst, a, b *Dense) {
	checkDst("MulATBTo", dst, a.Cols, b.Cols)
	dst.Zero()
	MulATBAcc(dst, a, b)
}

// MulATBAcc accumulates dst += aᵀ*b without materializing the
// transpose. It is the gradient-accumulation kernel: dW += xᵀ*grad
// writes straight into the parameter gradient.
func MulATBAcc(dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulATB row mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MulATBAcc", dst, a.Cols, b.Cols)
	if a.Rows == 0 || a.Cols == 0 || b.Cols == 0 {
		return
	}
	mulATBAcc(dst, a, b)
}

// MulABTTo computes dst = a*bᵀ without materializing the transpose,
// fully overwriting dst.
func MulABTTo(dst, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulABT col mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MulABTTo", dst, a.Rows, b.Rows)
	if a.Rows == 0 || b.Rows == 0 {
		return
	}
	if a.Cols == 0 {
		dst.Zero()
		return
	}
	mulABT(dst, a, b)
}

func checkDst(op string, dst *Dense, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("mat: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}
