//go:build !amd64 || noasm

package mat

// Pure-Go builds (non-amd64, or -tags noasm) carry no assembly kernels
// and run the plain family. useAsm starts false when hasAsm is, so these
// stubs exist only to satisfy the compiler; reaching one means a test
// flipped useAsm on a build that cannot honour it, which is worth a loud
// crash.
const hasAsm = false

func daxpy4(dst, b *float64, ldb int, a *[4]float64, n int) {
	panic("mat: asm kernel called on a noasm build")
}

func daxpy1(dst, b *float64, a float64, n int) {
	panic("mat: asm kernel called on a noasm build")
}

func ddot4(x, r *float64, ldr, n int) (s0, s1, s2, s3 float64) {
	panic("mat: asm kernel called on a noasm build")
}

func saxpy4(dst, b *float32, ldb int, a *[4]float32, n int) {
	panic("mat: asm kernel called on a noasm build")
}

func saxpy1(dst, b *float32, a float32, n int) {
	panic("mat: asm kernel called on a noasm build")
}

func sdot4(x, r *float32, ldr, n int) (s0, s1, s2, s3 float32) {
	panic("mat: asm kernel called on a noasm build")
}

func dgemmRows4x8(dst *float64, ldd int, a *float64, lda int, b *float64, ldb int, k int) {
	panic("mat: asm kernel called on a noasm build")
}

func dgemmRows4x4(dst *float64, ldd int, a *float64, lda int, b *float64, ldb int, k int) {
	panic("mat: asm kernel called on a noasm build")
}

func sgemmRows4x8(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k int) {
	panic("mat: asm kernel called on a noasm build")
}

func sgemmRows4x4(dst *float32, ldd int, a *float32, lda int, b *float32, ldb int, k int) {
	panic("mat: asm kernel called on a noasm build")
}

func vselu32(v *float32, n int, lambda, lambdaAlpha float32) {
	panic("mat: asm kernel called on a noasm build")
}

func vselu64(v *float64, n int, lambda, lambdaAlpha float64) {
	panic("mat: asm kernel called on a noasm build")
}

func vtanh64(v *float64, n int) {
	panic("mat: asm kernel called on a noasm build")
}

func vselugrad64(dst, grad, y *float64, n int, lambda, lambdaAlpha float64) {
	panic("mat: asm kernel called on a noasm build")
}

func reconFront64(hid *float64, k int, w *float64, n int, t, dpre *float64, c float64) (sum float64) {
	panic("mat: asm kernel called on a noasm build")
}

func reconBack64(dhid, hid *float64, k int, w, dw *float64, n int, dpre *float64) {
	panic("mat: asm kernel called on a noasm build")
}

func reconBack64x2(dhid, hid *float64, k int, w, dw *float64, n int, dpre *float64) {
	panic("mat: asm kernel called on a noasm build")
}
