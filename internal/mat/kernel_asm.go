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
// It governs a*b only; aᵀ*b (mulATBAccAsm) runs the strips at any width.
const daxpyMinN = 32

// RowGroup is the row height of the asm a*b kernels: below daxpyMinN
// (saxpyMinN) columns, mulRowsAsm (mulRows32) computes the output rows in
// groups of RowGroup, one ddot4 or dgemmRows4x{8,4} (sdot4 or
// sgemmRows4x{8,4}) call per group, and the last rows%RowGroup rows by a
// scalar route. The two round differently, so a row's bits depend on
// whether it falls in a full group; a caller that must reproduce a row's
// bits from another batch keeps it in the same kind of group.
const RowGroup = 4

// mulRowsAsm accumulates a*b into dst (pre-zeroed). Three regimes by
// output width: n == 1 runs 4-row dot products against the contiguous b
// column; small n runs the strided dgemmRows4x{8,4} kernels that hold 4
// output rows in registers across the whole k loop; wide n falls back to
// the daxpy drivers.
func mulRowsAsm(dst, a, b *Dense) {
	m, k := a.Rows, a.Cols
	n := dst.Cols
	if n == 0 || k == 0 {
		return
	}
	if n == 1 {
		i := 0
		for ; i+RowGroup <= m; i += RowGroup {
			dst.Data[i], dst.Data[i+1], dst.Data[i+2], dst.Data[i+3] =
				ddot4(&b.Data[0], &a.Data[i*k], k, k)
		}
		for ; i < m; i++ {
			dst.Data[i] = dotUnrolled(a.Row(i), b.Data)
		}
		return
	}
	if n < daxpyMinN {
		ns := n &^ 3 // columns covered by the 8/4-wide strips
		i := 0
		for ; i+RowGroup <= m; i += RowGroup {
			ar := &a.Data[i*k]
			j := 0
			for ; j+8 <= ns; j += 8 {
				dgemmRows4x8(&dst.Data[i*n+j], n, ar, k, 1, &b.Data[j], n, k)
			}
			for ; j+4 <= ns; j += 4 {
				dgemmRows4x4(&dst.Data[i*n+j], n, ar, k, 1, &b.Data[j], n, k)
			}
		}
		if i < m && ns > 0 {
			mulRowsColsPlain(dst, a, b, i, m, 0, ns)
		}
		if ns < n {
			mulRowsTailCols(dst, a, b, 0, m, ns)
		}
		return
	}
	var av [4]float64
	for i := 0; i < m; i++ {
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

// mulATBAccAsm accumulates aᵀ*b into dst register-tiled:
// dgemmRows4x{8,4} walk 4 columns of a as their 4 output rows, so a 4x8
// (or 4x4) block of dst stays in registers across all rows of a and b
// and is added to dst once, one call per block. The last ca%4 rows of
// dst run one daxpy4 per 4 rows of a and b. A single column of b is
// Σ_r b_r·a_r, 4 rows of a a daxpy4.
func mulATBAccAsm(dst, a, b *Dense) {
	rows, ca, cb := a.Rows, a.Cols, b.Cols
	switch {
	case cb == 0:
		return
	case cb == 1:
		var bv [4]float64
		r := 0
		for ; r+4 <= rows; r += 4 {
			bv[0], bv[1], bv[2], bv[3] = b.Data[r], b.Data[r+1], b.Data[r+2], b.Data[r+3]
			daxpy4(&dst.Data[0], &a.Data[r*ca], ca, &bv, ca)
		}
		for ; r < rows; r++ {
			daxpy1(&dst.Data[0], &a.Data[r*ca], b.Data[r], ca)
		}
		return
	}
	is, ns := ca&^3, cb&^3
	for i := 0; i < is; i += 4 {
		j := 0
		for ; j+8 <= ns; j += 8 {
			dgemmRows4x8(&dst.Data[i*cb+j], cb, &a.Data[i], 1, ca, &b.Data[j], cb, rows)
		}
		if j < ns {
			dgemmRows4x4(&dst.Data[i*cb+j], cb, &a.Data[i], 1, ca, &b.Data[j], cb, rows)
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
	mulATBAccRowsAsm(dst, a, b, is, ca)
}

// mulATBAccRowsAsm accumulates rows [i0,i1) of aᵀ*b into dst, one
// daxpy4 per dst row and 4 rows of a and b.
func mulATBAccRowsAsm(dst, a, b *Dense, i0, i1 int) {
	rows, ca, cb := a.Rows, a.Cols, b.Cols
	var av [4]float64
	r := 0
	for ; r+4 <= rows; r += 4 {
		bb := &b.Data[r*cb]
		for i := i0; i < i1; i++ {
			av[0], av[1], av[2], av[3] = a.Data[r*ca+i], a.Data[(r+1)*ca+i], a.Data[(r+2)*ca+i], a.Data[(r+3)*ca+i]
			daxpy4(&dst.Data[i*cb], bb, cb, &av, cb)
		}
	}
	for ; r < rows; r++ {
		bb := &b.Data[r*cb]
		for i := i0; i < i1; i++ {
			daxpy1(&dst.Data[i*cb], bb, a.Data[r*ca+i], cb)
		}
	}
}

// mulABTAsm computes a*bᵀ into dst. A small b (at most abtStage
// elements) is transposed once onto the stack, and the product runs as
// a*(bᵀ) through mulRowsAsm's register-tiled strips.
// A larger one runs ddot4: 4 dot products against 4 consecutive b rows
// per pass over the a row.
func mulABTAsm(dst, a, b *Dense) {
	nb := b.Rows
	k := a.Cols
	if nb*k <= abtStage {
		var stage [abtStage]float64
		bt := Dense{Rows: k, Cols: nb, Data: stage[:k*nb]}
		for j := 0; j < nb; j++ {
			for p, v := range b.Data[j*k : (j+1)*k] {
				bt.Data[p*nb+j] = v
			}
		}
		clear(dst.Data)
		mulRowsAsm(dst, a, &bt)
		return
	}
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
