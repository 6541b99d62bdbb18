package mat

import (
	"fmt"
	"runtime"
)

// Float64 multiply dispatch, for the baselines' solvers and the
// benchmark's GEMM rungs; the network's float32 products are mul32.go's,
// on the same two tiers. a*b has two tiers:
//
//  1. the direct register-tiled kernel (kernel.go) over the whole
//     output;
//  2. the same kernel over output-row panels on the shared worker pool
//     (pool.go) once the multiply-add count clears parallelThreshold.
//
// The transposed products aᵀ*b and a*bᵀ always run direct: training,
// whose backward passes issue them in float32, spreads over cores one
// level up, by sharding the mini-batch (core.Pretrain), not inside a
// product.
//
// The kernels change floating-point summation order relative to the
// reference kernels in mul_ref.go, so equivalence is specified to
// epsilon tolerance (see mul_equiv_test.go); the reference kernels
// remain the bit-exact oracle.

// parallelThreshold is the minimum number of scalar multiply-adds in a
// product before it fans output-row panels across the shared worker
// pool. It is the crossover BenchmarkPoolCrossover measures at
// GOMAXPROCS=2: handing panels to a pool worker costs a thread wake-up
// on each side (~30us together when the worker is warm, more when its
// core sleeps), so the pool only pays for products that run ~300us
// direct — 160^3 (4.1M multiply-adds) square, 16384x40x8 (5.2M) skinny.
// At the 64Ki this constant used to be, the pool route lost on every
// shape it caught: a 256-query serving batch's 1792x40x8 float32
// product ran 33us direct and 46us fanned out, a training step's
// 448x8x40 float64 product 23us and 32us.
const parallelThreshold = 4 << 20

// fansOut reports whether a product of macs multiply-adds over rows
// output rows takes the pool route. At GOMAXPROCS=1 nothing does: there
// is no second core to hand a panel to.
func fansOut(macs, rows int) bool {
	return macs >= parallelThreshold && rows > rowPanel && runtime.GOMAXPROCS(0) > 1
}

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
	if fansOut(m*k*n, m) {
		mulRowsPool(dst, a, b)
		return
	}
	mulRows(dst, a, b, 0, m)
}

// mulRowsPool is mulRows over all of dst, as row panels on the pool.
func mulRowsPool(dst, a, b *Dense) {
	j := newJob(opMulRows, a.Rows)
	j.dst, j.a, j.b = dst, a, b
	runParallel(j)
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
