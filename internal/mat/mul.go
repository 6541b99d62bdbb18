package mat

import "fmt"

// Multiply dispatch. Every product has two tiers:
//
//  1. the direct register-tiled kernel (kernel.go) over the whole
//     output, for the small and skinny shapes of the Bellamy MLPs;
//  2. the same kernel over output-row panels on the shared worker pool
//     (pool.go) once the multiply-add count clears parallelThreshold —
//     a serving batch's 1792x40x8 encoder product and the 448x40x8
//     products of a training step get here.
//
// The kernels change floating-point summation order relative to the
// reference kernels in mul_ref.go, so equivalence is specified to
// epsilon tolerance (see mul_equiv_test.go); the reference kernels
// remain the bit-exact oracle.

// parallelThreshold is the minimum number of scalar multiply-adds in a
// product before the kernels fan output-row panels across the shared
// worker pool. Small products (the common case for Bellamy's 2-layer
// MLPs) stay serial to avoid scheduling overhead.
const parallelThreshold = 64 * 1024

// rowPanel is the output-row panel size of the parallel tier: large
// enough that one claim amortizes the claim's atomic traffic.
const rowPanel = 8

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
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	nPanels := (m + rowPanel - 1) / rowPanel
	if m*k*n >= parallelThreshold && nPanels > 1 {
		j := newJob(opMulRows, nPanels)
		j.dst, j.a, j.b = dst, a, b
		runParallel(j)
		return
	}
	mulRows(dst, a, b, 0, m)
}

// MulATBTo computes dst = aᵀ*b, fully overwriting dst.
func MulATBTo(dst, a, b *Dense) {
	checkDst("MulATBTo", dst, a.Cols, b.Cols)
	dst.Zero()
	MulATBAcc(dst, a, b)
}

// MulATBAcc accumulates dst += aᵀ*b without materializing the
// transpose. It is the gradient-accumulation kernel: dW += xᵀ*grad
// writes straight into the parameter gradient. Large products fan
// output-row panels (columns of a) across the worker pool; every
// worker's accesses stay row-contiguous, re-reading b from shared
// cache while owning its dst rows exclusively.
func MulATBAcc(dst, a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulATB row mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MulATBAcc", dst, a.Cols, b.Cols)
	if a.Rows == 0 || a.Cols == 0 || b.Cols == 0 {
		return
	}
	nPanels := (a.Cols + rowPanel - 1) / rowPanel
	if a.Rows*a.Cols*b.Cols >= parallelThreshold && nPanels > 1 {
		j := newJob(opMulATBCols, nPanels)
		j.dst, j.a, j.b = dst, a, b
		runParallel(j)
		return
	}
	mulATBAccRange(dst, a, b, 0, a.Cols)
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
	nPanels := (a.Rows + rowPanel - 1) / rowPanel
	if a.Rows*a.Cols*b.Rows >= parallelThreshold && nPanels > 1 {
		j := newJob(opMulABTRows, nPanels)
		j.dst, j.a, j.b = dst, a, b
		runParallel(j)
		return
	}
	mulABTRows(dst, a, b, 0, a.Rows)
}

func checkDst(op string, dst *Dense, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("mat: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}
