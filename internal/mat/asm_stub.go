//go:build !amd64 || noasm

package mat

// Pure-Go builds (non-amd64, or -tags noasm) carry no assembly kernels
// and run the plain family. useAsm starts false when hasAsm is, so these
// stubs exist only to satisfy the compiler; reaching one means a test
// flipped useAsm on a build that cannot honour it, which is worth a loud
// crash.
const hasAsm = false

func saxpy4(dst, b *float32, ldb int, a *[4]float32, n int) {
	panic("mat: asm kernel called on a noasm build")
}

func saxpy1(dst, b *float32, a float32, n int) {
	panic("mat: asm kernel called on a noasm build")
}

func sdot4(x, r *float32, ldr, n int) (s0, s1, s2, s3 float32) {
	panic("mat: asm kernel called on a noasm build")
}

func sgemmRows4x8(dst *float32, ldd int, a *float32, lda, ka int, b *float32, ldb int, k int, groups int) {
	panic("mat: asm kernel called on a noasm build")
}

func sgemmRows4x4(dst *float32, ldd int, a *float32, lda, ka int, b *float32, ldb int, k int, groups int) {
	panic("mat: asm kernel called on a noasm build")
}

func vselu32(v *float32, n int, bias *float32, nb int, lambda, lambdaAlpha float32) {
	panic("mat: asm kernel called on a noasm build")
}

func vtanh32(v *float32, n int) {
	panic("mat: asm kernel called on a noasm build")
}

func vselugrad32(dst, grad, y *float32, n int, lambda, lambdaAlpha float32) {
	panic("mat: asm kernel called on a noasm build")
}

func reconFront32x2(hid *float32, k int, w *float32, n int, ta, tb, dpre *float32, c float32) (suma, sumb float32) {
	panic("mat: asm kernel called on a noasm build")
}

func reconBack32x2(dhid, hid *float32, k int, w, dw *float32, n int, dpre *float32) {
	panic("mat: asm kernel called on a noasm build")
}

func reconPairs32(dhid, hid *float32, k int, w, dw *float32, n int, targets *float32, rows *int32, pairs int, dpre *float32, c float32) (sum float64) {
	panic("mat: asm kernel called on a noasm build")
}

func adamSweep32(w, g0, g1, st *float32, n int, c *AdamCoef) {
	panic("mat: asm kernel called on a noasm build")
}

func vdropout32(y, slope, x *float32, words *uint64, n int, keepBelow uint32, a, ap, dropped float32) {
	panic("mat: asm kernel called on a noasm build")
}

func vmul32(dst, a, b *float32, n int) {
	panic("mat: asm kernel called on a noasm build")
}

func gatherRows32(dst, src *float32, rows *int32, n, c int) {
	panic("mat: asm kernel called on a noasm build")
}

func scatterAddRows32(dst, src *float32, rows *int32, n, c int) {
	panic("mat: asm kernel called on a noasm build")
}

func aeEncode32(x2, slope, codes, hu *float32, rows *int32, words *uint64, wd *float32, n int, c *aeCoef) {
	panic("mat: asm kernel called on a noasm build")
}

func aeDecodeFront32(a1, slope, hid, codes *float32, words *uint64, w *float32, n int, c *aeCoef) {
	panic("mat: asm kernel called on a noasm build")
}

func aeDecodeBack32(dx, dhid, slope, a1, codes, wt, dw *float32, n, nx int, c *aeCoef) {
	panic("mat: asm kernel called on a noasm build")
}

func aeEncodeBack32(du, dcodes, extra, codes, x2, slope, wt, dw *float32, rows *int32, n, nx int, c *aeCoef) {
	panic("mat: asm kernel called on a noasm build")
}
