package mat

import "fmt"

// Float32 multiply dispatch, mirroring mul.go tier for tier: the direct
// register-tiled row kernel for the small/skinny inference shapes, and
// the same kernel over output-row panels on the worker pool past
// parallelThreshold (a serving batch of thousands of queries). Under
// the asm family the inner loops run the AVX2 float32 helpers
// (sgemmRows4x{8,4}, saxpy4, sdot4; 8 lanes per register); the plain
// family is a multiply-add Go kernel.

// MulToF32 computes dst = a*b, fully overwriting dst. dst must be
// a.Rows x b.Cols and must not alias a or b.
func MulToF32(dst, a, b *DenseF32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulToF32 inner dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulToF32 dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if fansOut(m*k*n, m) {
		mulRows32Pool(dst, a, b)
		return
	}
	mulRows32(dst, a, b, 0, m)
}

// mulRows32Pool is mulRows32 over all of dst, as row panels on the pool.
func mulRows32Pool(dst, a, b *DenseF32) {
	j := newJob(opMulRows32, a.Rows)
	j.dst32, j.a32, j.b32 = dst, a, b
	runParallel(j)
}

// mulRows32 accumulates rows [lo,hi) of a*b into dst (rows pre-zeroed).
func mulRows32(dst, a, b *DenseF32, lo, hi int) {
	k := a.Cols
	n := dst.Cols
	if n == 0 || k == 0 {
		return
	}
	if useAsm {
		if n == 1 {
			i := lo
			for ; i+4 <= hi; i += 4 {
				dst.Data[i], dst.Data[i+1], dst.Data[i+2], dst.Data[i+3] =
					sdot4(&b.Data[0], &a.Data[i*k], k, k)
			}
			for ; i < hi; i++ {
				dst.Data[i] = dot32(a.Row(i), b.Data)
			}
			return
		}
		if n < saxpyMinN {
			// Skinny outputs (the inference MLP layers are 3..16 wide):
			// strided row kernels keep 4 dst rows in registers across
			// the whole k loop instead of a saxpy call per 4 k-steps.
			ns := n &^ 3 // columns covered by the 8/4-wide strips
			i := lo
			for ; i+4 <= hi; i += 4 {
				ar := &a.Data[i*k]
				j := 0
				for ; j+8 <= ns; j += 8 {
					sgemmRows4x8(&dst.Data[i*n+j], n, ar, k, &b.Data[j], n, k)
				}
				for ; j+4 <= ns; j += 4 {
					sgemmRows4x4(&dst.Data[i*n+j], n, ar, k, &b.Data[j], n, k)
				}
			}
			if i < hi && ns > 0 {
				mulRowsColsPlain32(dst, a, b, i, hi, 0, ns)
			}
			if ns < n {
				mulRowsTailCols32(dst, a, b, lo, hi, ns)
			}
			return
		}
		var av [4]float32
		for i := lo; i < hi; i++ {
			ar := a.Row(i)
			or := &dst.Row(i)[0]
			p := 0
			for ; p+4 <= k; p += 4 {
				av[0], av[1], av[2], av[3] = ar[p], ar[p+1], ar[p+2], ar[p+3]
				saxpy4(or, &b.Data[p*n], n, &av, n)
			}
			for ; p < k; p++ {
				saxpy1(or, &b.Data[p*n], ar[p], n)
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		or := dst.Row(i)
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := ar[p], ar[p+1], ar[p+2], ar[p+3]
			b0 := b.Row(p)[:n:n]
			b1 := b.Row(p + 1)[:n:n]
			b2 := b.Row(p + 2)[:n:n]
			b3 := b.Row(p + 3)[:n:n]
			for j := range or {
				or[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])
			}
		}
		for ; p < k; p++ {
			av := ar[p]
			br := b.Row(p)[:n:n]
			for j := range or {
				or[j] += av * br[j]
			}
		}
	}
}

// saxpyMinN is the float32 analogue of daxpyMinN: twice as wide
// because each saxpy4 step covers 8 lanes per ymm instead of 4.
const saxpyMinN = 64

// mulRowsColsPlain32 is the scalar ragged-edge helper for the asm
// branch of mulRows32: rows [r0,r1), columns [j0,j1) accumulated.
func mulRowsColsPlain32(dst, a, b *DenseF32, r0, r1, j0, j1 int) {
	k := a.Cols
	for i := r0; i < r1; i++ {
		ar := a.Row(i)
		or := dst.Row(i)[j0:j1]
		for p := 0; p < k; p++ {
			av := ar[p]
			br := b.Row(p)[j0:j1]
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
}

// mulRowsTailCols32 finishes the 1..3 columns the 4-wide strips cannot
// cover, for all rows [lo,hi): each tail column of b is copied into a
// contiguous stack buffer so sdot4 turns the column into 4-row dot
// products — the strided scalar loop this replaces was the hottest
// path on layer widths like 3 and 6.
func mulRowsTailCols32(dst, a, b *DenseF32, lo, hi, j0 int) {
	k := a.Cols
	n := dst.Cols
	var colBuf [512]float32
	if k > len(colBuf) {
		mulRowsColsPlain32(dst, a, b, lo, hi, j0, n)
		return
	}
	col := colBuf[:k]
	for j := j0; j < n; j++ {
		for p := range col {
			col[p] = b.Data[p*n+j]
		}
		i := lo
		for ; i+4 <= hi; i += 4 {
			s0, s1, s2, s3 := sdot4(&col[0], &a.Data[i*k], k, k)
			dst.Data[i*n+j] += s0
			dst.Data[(i+1)*n+j] += s1
			dst.Data[(i+2)*n+j] += s2
			dst.Data[(i+3)*n+j] += s3
		}
		for ; i < hi; i++ {
			dst.Data[i*n+j] += dot32(a.Row(i), col)
		}
	}
}

// Selu32 applies SELU elementwise in place using the AVX2 vectorized
// exp kernel. Returns false (leaving v untouched) when the asm family
// is unavailable; callers keep their scalar path as the fallback. The
// vector exp matches the scalar Cephes polynomial but fuses its
// multiply-adds, so results may differ from the scalar path by ~1 ulp.
func Selu32(v []float32, lambda, lambdaAlpha float32) bool {
	if !useAsm {
		return false
	}
	n := len(v) &^ 7
	if n > 0 {
		vselu32(&v[0], n, lambda, lambdaAlpha)
	}
	if t := len(v) - n; t > 0 {
		var buf [8]float32
		copy(buf[:], v[n:])
		vselu32(&buf[0], 8, lambda, lambdaAlpha)
		copy(v[n:], buf[:t])
	}
	return true
}

// dot32 is the float32 dotUnrolled: 4 partial sums break the add
// latency chain.
func dot32(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	k := 0
	for ; k+4 <= len(a); k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	var s float32
	for ; k < len(a); k++ {
		s += a[k] * b[k]
	}
	return s0 + s1 + s2 + s3 + s
}
