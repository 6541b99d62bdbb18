package mat

// Drivers of the asm family: the same signatures as the Go kernels in
// kernel.go, with the inner loops handed to the AVX2/FMA3
// helpers of kernel_amd64.s. Each driver hoists the operand base
// pointers and strides so the assembly sees raw pointers and never
// re-derives a row. These compile on every platform (the helpers have
// panicking stubs where the assembly is not built) but are only
// reachable when useAsm is set, which requires hasAsm.

// daxpyMinN is the output width from which the axpy drivers win over
// the strided row kernels: wide rows amortize the per-4-k-steps daxpy4
// call over n lanes, while skinny products (MLP layers are 1..16
// columns) would pay k/4 call overheads per row for almost no work.
const daxpyMinN = 32

// mulRowsAsm accumulates rows [lo,hi) of a*b into dst (rows
// pre-zeroed). Three regimes by output width: n == 1 runs 4-row dot
// products against the contiguous b column; small n runs the strided
// dgemmRows4x{8,4} kernels that hold 4 output rows in registers across
// the whole k loop; wide n falls back to the daxpy drivers.
func mulRowsAsm(dst, a, b *Dense, lo, hi int) {
	k := a.Cols
	n := dst.Cols
	if n == 0 || k == 0 {
		return
	}
	if n == 1 {
		i := lo
		for ; i+4 <= hi; i += 4 {
			dst.Data[i], dst.Data[i+1], dst.Data[i+2], dst.Data[i+3] =
				ddot4(&b.Data[0], &a.Data[i*k], k, k)
		}
		for ; i < hi; i++ {
			dst.Data[i] = dotUnrolled(a.Row(i), b.Data)
		}
		return
	}
	if n < daxpyMinN {
		ns := n &^ 3 // columns covered by the 8/4-wide strips
		i := lo
		for ; i+4 <= hi; i += 4 {
			ar := &a.Data[i*k]
			j := 0
			for ; j+8 <= ns; j += 8 {
				dgemmRows4x8(&dst.Data[i*n+j], n, ar, k, &b.Data[j], n, k)
			}
			for ; j+4 <= ns; j += 4 {
				dgemmRows4x4(&dst.Data[i*n+j], n, ar, k, &b.Data[j], n, k)
			}
		}
		if i < hi && ns > 0 {
			mulRowsColsPlain(dst, a, b, i, hi, 0, ns)
		}
		if ns < n {
			mulRowsTailCols(dst, a, b, lo, hi, ns)
		}
		return
	}
	var av [4]float64
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		or := &dst.Row(i)[0]
		p := 0
		for ; p+4 <= k; p += 4 {
			av[0], av[1], av[2], av[3] = ar[p], ar[p+1], ar[p+2], ar[p+3]
			daxpy4(or, &b.Data[p*n], n, &av, n)
		}
		for ; p < k; p++ {
			daxpy1(or, &b.Data[p*n], ar[p], n)
		}
	}
}

// mulRowsColsPlain is the scalar ragged-edge helper for mulRowsAsm:
// rows [r0,r1), columns [j0,j1) of a*b accumulated into dst.
func mulRowsColsPlain(dst, a, b *Dense, r0, r1, j0, j1 int) {
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

// mulRowsTailCols finishes the 1..3 columns the 4-wide strips cannot
// cover, for all rows [lo,hi): each tail column of b is staged
// contiguously so ddot4 turns it into 4-row dot products.
func mulRowsTailCols(dst, a, b *Dense, lo, hi, j0 int) {
	k := a.Cols
	n := dst.Cols
	var colBuf [512]float64
	if k > len(colBuf) {
		mulRowsColsPlain(dst, a, b, lo, hi, j0, n)
		return
	}
	col := colBuf[:k]
	for j := j0; j < n; j++ {
		for p := range col {
			col[p] = b.Data[p*n+j]
		}
		i := lo
		for ; i+4 <= hi; i += 4 {
			s0, s1, s2, s3 := ddot4(&col[0], &a.Data[i*k], k, k)
			dst.Data[i*n+j] += s0
			dst.Data[(i+1)*n+j] += s1
			dst.Data[(i+2)*n+j] += s2
			dst.Data[(i+3)*n+j] += s3
		}
		for ; i < hi; i++ {
			dst.Data[i*n+j] += dotUnrolled(a.Row(i), col)
		}
	}
}

// mulATBAccAsm accumulates aᵀ*b into dst: per dst row, 4 rank-1 updates
// fuse into one daxpy4 whose a coefficients are gathered from a column
// of a.
func mulATBAccAsm(dst, a, b *Dense) {
	rows := a.Rows
	cb := b.Cols
	if cb == 0 {
		return
	}
	var av [4]float64
	k := 0
	for ; k+4 <= rows; k += 4 {
		ar0, ar1, ar2, ar3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		bb := &b.Data[k*cb]
		for i := range ar0 {
			av[0], av[1], av[2], av[3] = ar0[i], ar1[i], ar2[i], ar3[i]
			daxpy4(&dst.Row(i)[0], bb, cb, &av, cb)
		}
	}
	for ; k < rows; k++ {
		bb := &b.Data[k*cb]
		for i, av1 := range a.Row(k) {
			daxpy1(&dst.Row(i)[0], bb, av1, cb)
		}
	}
}

// mulABTAsm computes a*bᵀ into dst: ddot4 runs 4 dot products against 4
// consecutive b rows per pass over the a row.
func mulABTAsm(dst, a, b *Dense) {
	nb := b.Rows
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := dst.Row(i)
		j := 0
		for ; j+4 <= nb; j += 4 {
			or[j], or[j+1], or[j+2], or[j+3] = ddot4(&ar[0], &b.Data[j*k], k, k)
		}
		for ; j < nb; j++ {
			or[j] = dotUnrolled(ar, b.Row(j))
		}
	}
}
