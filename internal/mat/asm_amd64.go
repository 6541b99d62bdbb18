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

// daxpy4 computes dst[j] += Σ_{r<4} a[r]*b[r*ldb+j] for j in [0,n): a
// fused 4-row axpy whose four broadcasts are hoisted out of the j loop.
//
//go:noescape
func daxpy4(dst, b *float64, ldb int, a *[4]float64, n int)

// daxpy1 computes dst[j] += a*b[j] for j in [0,n).
//
//go:noescape
func daxpy1(dst, b *float64, a float64, n int)

// ddot4 computes four dot products sharing one left operand:
// s_r = Σ_{j<n} x[j]*r[r*ldr+j]. n must be >= 1.
//
//go:noescape
func ddot4(x, r *float64, ldr, n int) (s0, s1, s2, s3 float64)

// saxpy4 is the float32 form of daxpy4.
//
//go:noescape
func saxpy4(dst, b *float32, ldb int, a *[4]float32, n int)

// saxpy1 is the float32 form of daxpy1.
//
//go:noescape
func saxpy1(dst, b *float32, a float32, n int)

// sdot4 is the float32 form of ddot4. n must be >= 1.
//
//go:noescape
func sdot4(x, r *float32, ldr, n int) (s0, s1, s2, s3 float32)

// dgemmRows4x8 accumulates dst[r][c] += Σ_k a[r*lda+k] * b[k*ldb+c]
// for 4 dst rows and 8 columns, all kept in registers across the whole
// k loop. This is the skinny-product kernel: one call covers k*32
// FLOPs, so tiny n (4..64) no longer pays a call per 4 k-steps.
// k must be >= 1.
//
//go:noescape
func dgemmRows4x8(dst *float64, ldd int, a *float64, lda int, b *float64, ldb int, k int)

// dgemmRows4x4 is the 4-column strip variant of dgemmRows4x8.
//
//go:noescape
func dgemmRows4x4(dst *float64, ldd int, a *float64, lda int, b *float64, ldb int, k int)

// sgemmRows4x8 is the float32 form of dgemmRows4x8.
//
//go:noescape
func sgemmRows4x8(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k int)

// sgemmRows4x4 is the float32 form of dgemmRows4x4.
//
//go:noescape
func sgemmRows4x4(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k int)

// vselu32 applies SELU in place over n float32 values using an AVX2
// vectorized expf. n must be a positive multiple of 8; Selu32 wraps the
// ragged tail through a stack buffer.
//
//go:noescape
func vselu32(v *float32, n int, lambda, lambdaAlpha float32)

// vselu64 applies SELU in place over n float64 values: lambda*x where
// the sign bit of x is clear, lambdaAlpha*expm1(x) where it is set. n
// must be a positive multiple of 4; Selu64 wraps the ragged tail
// through a stack buffer.
//
//go:noescape
func vselu64(v *float64, n int, lambda, lambdaAlpha float64)

// vtanh64 applies tanh in place over n float64 values. n must be a
// positive multiple of 4.
//
//go:noescape
func vtanh64(v *float64, n int)

// vselugrad64 sets dst[i] = grad[i] * (y[i] > 0 ? lambda : y[i] +
// lambdaAlpha) for i in [0,n). n must be a positive multiple of 4.
//
//go:noescape
func vselugrad64(dst, grad, y *float64, n int, lambda, lambdaAlpha float64)

// reconFront64 is the forward half of one row of ReconHead64: with
// out = hid·w (hid a row of k values, w k×n), y = tanh(out) as vtanh64
// computes it and d = y − t, it writes dpre = d·c·(1−y²) to the row's
// dpre buffer, which must hold n rounded up to a multiple of 4 values,
// and returns Σ d². k and n must be >= 1.
//
//go:noescape
func reconFront64(hid *float64, k int, w *float64, n int, t, dpre *float64, c float64) (sum float64)

// reconBack64 is the backward half of one row of ReconHead64: from the
// row's dpre it accumulates dw += hidᵀ·dpre and writes dhid = dpre·wᵀ
// (k values).
//
//go:noescape
func reconBack64(dhid, hid *float64, k int, w, dw *float64, n int, dpre *float64)

// reconBack64x2 is reconBack64 for two consecutive rows of hid and
// dhid, whose dpre rows follow each other in dpre, n rounded up to a
// multiple of 4 apart. Its results are those of reconBack64 on the
// first row and then on the second, bit for bit.
//
//go:noescape
func reconBack64x2(dhid, hid *float64, k int, w, dw *float64, n int, dpre *float64)
