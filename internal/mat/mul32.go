package mat

import "fmt"

// Float32 multiply dispatch, the products the network trains and serves
// on. Every product runs its direct register-tiled kernel on the calling
// goroutine, whatever its size: a single-model batch of any size runs on
// one core. The package starts no goroutine and holds no lock, so
// concurrent callers sharing read-only operands need no coordination.
// Under the asm family the inner loops run the AVX2 float32 helpers
// (sgemmRows4x{8,4}, saxpy4, sdot4; 8 lanes per register); the plain
// family is a multiply-add Go kernel.
//
// The kernels are sized for the products the network issues, where no
// layer is wider than 40: a 256-query serving batch's largest is the
// encoder's first layer, 1792×40×8; a 32-sample training shard's are up
// to 224×40×8 forward, with their weight gradients dW += Xᵀ·dY walking
// four columns of X per call. The decoder's output layer and its loss
// do not come here: ReconHead32 fuses them. Larger products stay
// correct on the same kernels.

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
	if a.Rows == 0 || a.Cols == 0 || b.Cols == 0 {
		return
	}
	mulRows32(dst, a, b)
}

// MulATBAccF32 accumulates dst += aᵀ*b without materializing the
// transpose: the weight-gradient product dW += xᵀ*grad, written
// straight into the parameter gradient.
func MulATBAccF32(dst, a, b *DenseF32) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulATBAccF32 row mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulATBAccF32 dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if a.Rows == 0 || a.Cols == 0 || b.Cols == 0 {
		return
	}
	if useAsm {
		mulATBAccAsm32(dst, a, b)
		return
	}
	mulATBAcc32(dst, a, b)
}

// MulABTToF32 computes dst = a*bᵀ without materializing the transpose,
// fully overwriting dst: the input-gradient product dX = dY*Wᵀ.
func MulABTToF32(dst, a, b *DenseF32) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulABTToF32 col mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulABTToF32 dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if a.Rows == 0 || b.Rows == 0 {
		return
	}
	if a.Cols == 0 {
		dst.Zero()
		return
	}
	if useAsm {
		mulABTAsm32(dst, a, b)
		return
	}
	mulABT32(dst, a, b)
}

// RowGroup is the row height of the asm a*b kernels: below saxpyMinN
// columns, mulRows32 computes the output rows in groups of RowGroup —
// an sdot4 call per group, or each column strip's sgemmRows4x{8,4} call
// down all of them — and the last rows%RowGroup rows by a scalar route.
// The two round differently, so a row's bits depend on whether it falls
// in a full group; a caller that must reproduce a row's bits from
// another batch keeps it in the same kind of group.
const RowGroup = 4

// mulRows32 accumulates a*b into dst (pre-zeroed).
func mulRows32(dst, a, b *DenseF32) {
	m, k := a.Rows, a.Cols
	n := dst.Cols
	if n == 0 || k == 0 {
		return
	}
	if useAsm {
		if n == 1 {
			i := 0
			for ; i+RowGroup <= m; i += RowGroup {
				dst.Data[i], dst.Data[i+1], dst.Data[i+2], dst.Data[i+3] =
					sdot4(&b.Data[0], &a.Data[i*k], k, k)
			}
			for ; i < m; i++ {
				dst.Data[i] = dot32(a.Row(i), b.Data)
			}
			return
		}
		if n < saxpyMinN {
			// Skinny outputs (the inference MLP layers are 3..16 wide):
			// strided row kernels keep 4 dst rows in registers across
			// the whole k loop instead of a saxpy call per 4 k-steps.
			// Each strip runs down all the full row groups in one call.
			ns := n &^ 3 // columns covered by the 8/4-wide strips
			i := m &^ (RowGroup - 1)
			if groups := i / RowGroup; groups > 0 {
				j := 0
				for ; j+8 <= ns; j += 8 {
					sgemmRows4x8(&dst.Data[j], n, &a.Data[0], k, 1, &b.Data[j], n, k, groups)
				}
				for ; j+4 <= ns; j += 4 {
					sgemmRows4x4(&dst.Data[j], n, &a.Data[0], k, 1, &b.Data[j], n, k, groups)
				}
			}
			if i < m && ns > 0 {
				mulRowsColsPlain32(dst, a, b, i, m, 0, ns)
			}
			if ns < n {
				mulRowsTailCols32(dst, a, b, 0, m, ns)
			}
			return
		}
		var av [4]float32
		for i := 0; i < m; i++ {
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
	for i := 0; i < m; i++ {
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

// saxpyMinN is the output width from which mulRows32's saxpy drivers
// win over the strided row kernels: wide rows amortize the
// per-4-k-steps saxpy4 call over n lanes, while skinny products would
// pay k/4 call overheads per row for almost no work. It governs a*b
// only; aᵀ*b (mulATBAccAsm32) runs the strips at any width.
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

// dot32 is an inner product with 4 partial sums, breaking the single
// add-latency chain of the naive loop.
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

// mulATBAcc32 is the plain family's aᵀ*b: the k loop (rows of a and b)
// unrolled 4-way so each dst row is loaded and stored once per 4 rank-1
// updates, every access row-contiguous.
func mulATBAcc32(dst, a, b *DenseF32) {
	rows, cb := a.Rows, b.Cols
	k := 0
	for ; k+4 <= rows; k += 4 {
		ar0, ar1, ar2, ar3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		br0 := b.Row(k)[:cb:cb]
		br1 := b.Row(k + 1)[:cb:cb]
		br2 := b.Row(k + 2)[:cb:cb]
		br3 := b.Row(k + 3)[:cb:cb]
		for i, a0 := range ar0 {
			a1, a2, a3 := ar1[i], ar2[i], ar3[i]
			or := dst.Row(i)
			for j := range or {
				or[j] += (a0*br0[j] + a1*br1[j]) + (a2*br2[j] + a3*br3[j])
			}
		}
	}
	for ; k < rows; k++ {
		br := b.Row(k)[:cb:cb]
		for i, av := range a.Row(k) {
			or := dst.Row(i)
			for j := range or {
				or[j] += av * br[j]
			}
		}
	}
}

// mulABT32 is the plain family's a*bᵀ: output columns tiled 4-wide, one
// pass over the a row feeding 4 dot products against 4 b rows.
func mulABT32(dst, a, b *DenseF32) {
	nb := b.Rows
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := dst.Row(i)
		j := 0
		for ; j+4 <= nb; j += 4 {
			br0, br1, br2, br3 := b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3)
			var s0, s1, s2, s3 float32
			for k, av := range ar {
				s0 += av * br0[k]
				s1 += av * br1[k]
				s2 += av * br2[k]
				s3 += av * br3[k]
			}
			or[j], or[j+1], or[j+2], or[j+3] = s0, s1, s2, s3
		}
		for ; j < nb; j++ {
			or[j] = dot32(ar, b.Row(j))
		}
	}
}

// mulATBAccAsm32 accumulates aᵀ*b into dst register-tiled:
// sgemmRows4x{8,4} walk 4 columns of a as their 4 output rows (lda 1,
// the k-stride the row stride of a), so a 4x8 (or 4x4) block of dst
// stays in registers across all rows of a and b and is added to dst
// once. The last ca%4 rows of dst run one saxpy4 per 4 rows of a and b,
// the last cb%4 columns a scalar loop. A single column of b is
// Σ_r b_r·a_r, 4 rows of a a saxpy4.
func mulATBAccAsm32(dst, a, b *DenseF32) {
	rows, ca, cb := a.Rows, a.Cols, b.Cols
	if cb == 1 {
		var bv [4]float32
		r := 0
		for ; r+4 <= rows; r += 4 {
			bv[0], bv[1], bv[2], bv[3] = b.Data[r], b.Data[r+1], b.Data[r+2], b.Data[r+3]
			saxpy4(&dst.Data[0], &a.Data[r*ca], ca, &bv, ca)
		}
		for ; r < rows; r++ {
			saxpy1(&dst.Data[0], &a.Data[r*ca], b.Data[r], ca)
		}
		return
	}
	is, ns := ca&^3, cb&^3
	if groups := is / 4; groups > 0 {
		j := 0
		for ; j+8 <= ns; j += 8 {
			sgemmRows4x8(&dst.Data[j], cb, &a.Data[0], 1, ca, &b.Data[j], cb, rows, groups)
		}
		if j < ns {
			sgemmRows4x4(&dst.Data[j], cb, &a.Data[0], 1, ca, &b.Data[j], cb, rows, groups)
		}
	}
	// The 1..3 columns the strips leave, for the rows they covered.
	for j := ns; j < cb; j++ {
		for r := 0; r < rows; r++ {
			bv, ar := b.Data[r*cb+j], a.Data[r*ca:r*ca+is]
			for i, av := range ar {
				dst.Data[i*cb+j] += av * bv
			}
		}
	}
	var av [4]float32
	r := 0
	for ; r+4 <= rows; r += 4 {
		bb := &b.Data[r*cb]
		for i := is; i < ca; i++ {
			av[0], av[1], av[2], av[3] = a.Data[r*ca+i], a.Data[(r+1)*ca+i], a.Data[(r+2)*ca+i], a.Data[(r+3)*ca+i]
			saxpy4(&dst.Data[i*cb], bb, cb, &av, cb)
		}
	}
	for ; r < rows; r++ {
		bb := &b.Data[r*cb]
		for i := is; i < ca; i++ {
			saxpy1(&dst.Data[i*cb], bb, a.Data[r*ca+i], cb)
		}
	}
}

// abtStage bounds the b of a*bᵀ that mulABTAsm32 transposes onto its
// stack, in elements: every weight matrix of the Bellamy MLPs fits (the
// largest, the encoder's 40x8, has 320). The stage is zeroed on every
// call, so it is no larger than that needs.
const abtStage = 512

// mulABTAsm32 computes a*bᵀ into dst. A small b — the weights of an
// input gradient dX = dY·Wᵀ — is transposed once onto the stack, and the
// product runs as a*(bᵀ) through mulRows32's register-tiled strips. A
// larger one runs sdot4: 4 dot products against 4 consecutive b rows
// per pass over the a row.
func mulABTAsm32(dst, a, b *DenseF32) {
	nb := b.Rows
	k := a.Cols
	if nb*k <= abtStage {
		var stage [abtStage]float32
		bt := DenseF32{Rows: k, Cols: nb, Data: stage[:k*nb]}
		for j := 0; j < nb; j++ {
			for p, v := range b.Data[j*k : (j+1)*k] {
				bt.Data[p*nb+j] = v
			}
		}
		clear(dst.Data)
		mulRows32(dst, a, &bt)
		return
	}
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := dst.Row(i)
		j := 0
		for ; j+4 <= nb; j += 4 {
			or[j], or[j+1], or[j+2], or[j+3] = sdot4(&ar[0], &b.Data[j*k], k, k)
		}
		for ; j < nb; j++ {
			or[j] = dot32(ar, b.Row(j))
		}
	}
}
