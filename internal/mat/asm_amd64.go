//go:build amd64 && !noasm

package mat

// hasAsm reports whether the hand-written AVX2/FMA3 kernels in
// kernel_amd64.s can run on this CPU: FMA3 + AVX2, plus OS support for
// saving ymm state (OSXSAVE/XGETBV, the same chain the runtime uses).
// Checked once at startup from raw CPUID leaves; the result is the
// kernel family (useAsm in kernel.go).
var hasAsm = detectAsm()

func detectAsm() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, cx, _ := cpuid(1, 0)
	const want = 1<<12 | 1<<27 | 1<<28 // FMA3, OSXSAVE, AVX
	if cx&want != want {
		return false
	}
	// XCR0 bits 1 and 2: the OS preserves xmm and ymm register state
	// across context switches. Without them AVX executes but corrupts.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, bx, _, _ := cpuid(7, 0)
	return bx&(1<<5) != 0 // AVX2
}

// cpuid executes the CPUID instruction for the given leaf/subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// saxpy4 computes dst[j] += Σ_{r<4} a[r]*b[r*ldb+j] for j in [0,n): a
// fused 4-row axpy whose four broadcasts are hoisted out of the j loop.
//
//go:noescape
func saxpy4(dst, b *float32, ldb int, a *[4]float32, n int)

// saxpy1 computes dst[j] += a*b[j] for j in [0,n).
//
//go:noescape
func saxpy1(dst, b *float32, a float32, n int)

// sdot4 computes four dot products sharing one left operand:
// s_r = Σ_{j<n} x[j]*r[r*ldr+j]. n must be >= 1.
//
//go:noescape
func sdot4(x, r *float32, ldr, n int) (s0, s1, s2, s3 float32)

// sgemmRows4x8 accumulates dst[r][c] += Σ_p a[r*lda+p*ka] * b[p*ldb+c]
// for 4 dst rows and 8 columns, one 8-lane register per row, kept across
// the whole p loop and added to dst once at the end. This is the
// skinny-product kernel: one call covers 32 multiply-adds per k step,
// so the 4..16-wide layers do not pay a call per 4 k-steps. With ka = 1
// the rows of dst read rows of a (a*b, lda its row stride); with lda = 1
// they read columns (aᵀ*b, ka its row stride). It covers groups such
// blocks, each 4 rows of dst and 4*lda elements of a past the one
// before, so a strip down a tall product is one call. k and groups must
// be >= 1.
//
//go:noescape
func sgemmRows4x8(dst *float32, ldd int, a *float32, lda, ka int, b *float32, ldb int, k int, groups int)

// sgemmRows4x4 is the 4-column strip variant of sgemmRows4x8.
//
//go:noescape
func sgemmRows4x4(dst *float32, ldd int, a *float32, lda, ka int, b *float32, ldb int, k int, groups int)

// vselu32 applies SELU in place over n float32 values plus the nb bias
// values that repeat along them: lambda*x where the sign bit of x is
// clear, lambdaAlpha*expm1(x) where it is set. n and nb must be
// positive multiples of 8; BiasSelu32 wraps the ragged tail through a
// stack buffer.
//
//go:noescape
func vselu32(v *float32, n int, bias *float32, nb int, lambda, lambdaAlpha float32)

// vtanh32 applies tanh in place over n float32 values. n must be a
// positive multiple of 8.
//
//go:noescape
func vtanh32(v *float32, n int)

// vselugrad32 sets dst[i] = grad[i] * (y[i] > 0 ? lambda : y[i] +
// lambdaAlpha) for i in [0,n). n must be a positive multiple of 8.
//
//go:noescape
func vselugrad32(dst, grad, y *float32, n int, lambda, lambdaAlpha float32)

// reconFront32x2 is the forward half of two consecutive rows a and b
// of ReconHead32, whose k values each follow each other in hid: with
// out = hid·w (w k×n), y = tanh(out) as vtanh32 computes it and d = y − t
// against the row's target ta or tb, it writes dpre = d·c·(1−y²) to the
// row's dpre buffer — a's at dpre, b's n rounded up to a multiple of 8
// values further on — and returns each row's Σ d². k and n must be >= 1.
//
//go:noescape
func reconFront32x2(hid *float32, k int, w *float32, n int, ta, tb, dpre *float32, c float32) (suma, sumb float32)

// reconBack32x2 is the backward half of two consecutive rows of
// ReconHead32, whose dpre rows follow each other in dpre, n rounded up
// to a multiple of 8 apart: dw += hid_aᵀ·dpre_a + hid_bᵀ·dpre_b, and
// dhid = dpre·wᵀ for both rows (k values each).
//
//go:noescape
func reconBack32x2(dhid, hid *float32, k int, w, dw *float32, n int, dpre *float32)

// reconPairs32 is reconHeadAsm32's loop over its first 2·pairs rows:
// reconFront32x2 and reconBack32x2 on each pair, the rows' Σ d² summed
// into sum as float64s in row order. pairs must be >= 1.
//
//go:noescape
func reconPairs32(dhid, hid *float32, k int, w, dw *float32, n int, targets *float32, rows *int32, pairs int, dpre *float32, c float32) (sum float64)

// adamSweep32 is one Adam step over n weights; see AdamSweep32. n must
// be a positive multiple of 8.
//
//go:noescape
func adamSweep32(w, g0, g1, st *float32, n int, c *AdamCoef)

// vdropout32 is AlphaDropout32's training pass over n units, whose
// draws are the 16-bit fields of words in memory order. n must be a
// positive multiple of 8.
//
//go:noescape
func vdropout32(y, slope, x *float32, words *uint64, n int, keepBelow uint32, a, ap, dropped float32)

// vmul32 sets dst[i] = a[i]*b[i] for i in [0,n). n must be a positive
// multiple of 8.
//
//go:noescape
func vmul32(dst, a, b *float32, n int)

// gatherRows32 sets row i of dst to row rows[i] of src, rows of c
// floats, for i in [0,n). c must be a positive multiple of 8, n >= 1,
// and every rows[i] a row of src.
//
//go:noescape
func gatherRows32(dst, src *float32, rows *int32, n, c int)

// scatterAddRows32 adds row i of src to row rows[i] of dst, rows of c
// floats, for i in [0,n) in order. c must be a positive multiple of 8,
// n >= 1, and every rows[i] a row of dst.
//
//go:noescape
func scatterAddRows32(dst, src *float32, rows *int32, n, c int)

// aeEncode32 is EncodeRows32's pass over n rows, n a multiple of 4: gather,
// dropout and the 8→4 SELU layer; see kernel_amd64.s.
//
//go:noescape
func aeEncode32(x2, slope, codes, hu *float32, rows *int32, words *uint64, wd *float32, n int, c *aeCoef)

// aeDecodeFront32 is DecodeRows32's forward half over n rows: the 4→8
// SELU layer and dropout.
//
//go:noescape
func aeDecodeFront32(a1, slope, hid, codes *float32, words *uint64, w *float32, n int, c *aeCoef)

// aeDecodeBack32 is DecodeRows32's backward half over n rows, with the
// code gradient of the first nx.
//
//go:noescape
func aeDecodeBack32(dx, dhid, slope, a1, codes, wt, dw *float32, n, nx int, c *aeCoef)

// aeEncodeBack32 is EncodeRowsBack32's pass over n rows, with the unit
// gradient of the first nx scattered onto du.
//
//go:noescape
func aeEncodeBack32(du, dcodes, extra, codes, x2, slope, wt, dw *float32, rows *int32, n, nx int, c *aeCoef)
