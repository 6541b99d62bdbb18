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
