package mat

// Direct register-tiled multiply kernels: mulRows, mulATBAcc and
// mulABT run straight on the row-major operands. They unroll the
// reduction (or the output columns) 4- or 8-way so each output element
// is loaded and stored once per unroll group instead of once per
// multiply-add, and they carry independent accumulator chains for
// instruction-level parallelism. The Go loops here are the plain
// family; under the asm family every kernel hands its operands to the
// AVX2 driver of the same shape in kernel_asm.go.
//
// None of the kernels branch on zero operands: the old `av == 0` skip
// helped only on artificially sparse data and defeated pipelining on
// the dense matrices that dominate training and serving.

// useAsm selects the kernel family every multiply in this process
// runs: the hand-written AVX2/FMA3 kernels ("asm") when the CPU and the
// build have them, the Go multiply-add kernels ("plain") otherwise.
// Fixed at startup from hasAsm; nothing configures it, and only the
// equivalence tests flip it.
var useAsm = hasAsm

// KernelFamily names the multiply-kernel family in use, "asm" or
// "plain", for startup logging and benchmark reports.
func KernelFamily() string {
	if useAsm {
		return "asm"
	}
	return "plain"
}

// mulRows accumulates a*b into dst (pre-zeroed).
// The reduction is unrolled 8-way (with 4-way and scalar tails): each
// pass streams 8 rows of b and touches the output row once per 8
// multiply-adds, summed as a balanced tree.
func mulRows(dst, a, b *Dense) {
	if useAsm {
		mulRowsAsm(dst, a, b)
		return
	}
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := dst.Row(i)
		n := len(or)
		p := 0
		for ; p+8 <= k; p += 8 {
			a0, a1, a2, a3 := ar[p], ar[p+1], ar[p+2], ar[p+3]
			a4, a5, a6, a7 := ar[p+4], ar[p+5], ar[p+6], ar[p+7]
			b0 := b.Row(p)[:n:n]
			b1 := b.Row(p + 1)[:n:n]
			b2 := b.Row(p + 2)[:n:n]
			b3 := b.Row(p + 3)[:n:n]
			b4 := b.Row(p + 4)[:n:n]
			b5 := b.Row(p + 5)[:n:n]
			b6 := b.Row(p + 6)[:n:n]
			b7 := b.Row(p + 7)[:n:n]
			for j := range or {
				or[j] += ((a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j])) +
					((a4*b4[j] + a5*b5[j]) + (a6*b6[j] + a7*b7[j]))
			}
		}
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

// mulATBAcc accumulates aᵀ*b into dst: dst[i][j] += Σ_k a[k][i]*b[k][j].
// The k loop (rows of a and b) is unrolled 4-way so each dst row is
// loaded and stored once per 4 rank-1 updates. All accesses stay
// row-contiguous.
func mulATBAcc(dst, a, b *Dense) {
	if useAsm {
		mulATBAccAsm(dst, a, b)
		return
	}
	rows := a.Rows
	cb := b.Cols
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

// mulABT computes a*bᵀ into dst. Output columns are tiled 4-wide: one
// pass over the (contiguous) a row feeds 4 dot products against 4
// (contiguous) b rows, giving 4 independent accumulator chains instead
// of one latency-bound chain per element.
func mulABT(dst, a, b *Dense) {
	if useAsm {
		mulABTAsm(dst, a, b)
		return
	}
	nb := b.Rows
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := dst.Row(i)
		j := 0
		for ; j+4 <= nb; j += 4 {
			br0 := b.Row(j)
			br1 := b.Row(j + 1)
			br2 := b.Row(j + 2)
			br3 := b.Row(j + 3)
			var s0, s1, s2, s3 float64
			for k, av := range ar {
				s0 += av * br0[k]
				s1 += av * br1[k]
				s2 += av * br2[k]
				s3 += av * br3[k]
			}
			or[j] = s0
			or[j+1] = s1
			or[j+2] = s2
			or[j+3] = s3
		}
		for ; j < nb; j++ {
			or[j] = dotUnrolled(ar, b.Row(j))
		}
	}
}

// dotUnrolled is an inner product with 4 partial sums, breaking the
// single add-latency chain of the naive loop. The partial sums change
// the summation order, which is why the kernels are specified to
// epsilon tolerance against mul_ref.go rather than bit identity.
func dotUnrolled(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	var s float64
	for ; k < len(a); k++ {
		s += a[k] * b[k]
	}
	return s0 + s1 + s2 + s3 + s
}
