package mat

// Float64 activation kernels of the asm family. Training applies SELU
// and tanh to every layer output (nn.LinearAct's fused epilogues); under
// the asm family those epilogues hand the whole output to one 4-lane
// AVX2/FMA3 kernel of kernel_amd64.s instead of calling math.Exp or
// math.Tanh per element. Both kernels go through one vector expm1, so
// they stay within 2 ulp of lambdaAlpha*math.Expm1 and math.Tanh; the
// SELU gradient is the scalar formula's two IEEE operations and is
// bit-identical to it. A ragged tail runs through a 4-lane stack buffer,
// so an element's result depends only on its value, never on its
// position or the slice's length.

// ActKernels reports whether Selu64, Tanh64 and SeluGrad64 run: exactly
// when the asm family does. Callers keep their scalar loops as the plain
// family and must not call the kernels when this is false.
func ActKernels() bool { return useAsm }

// Selu64 applies SELU in place: lambda*x for x > 0, else
// lambdaAlpha*expm1(x). NaN stays NaN.
func Selu64(v []float64, lambda, lambdaAlpha float64) {
	n := len(v) &^ 3
	if n > 0 {
		vselu64(&v[0], n, lambda, lambdaAlpha)
	}
	if t := len(v) - n; t > 0 {
		var buf [4]float64
		copy(buf[:], v[n:])
		vselu64(&buf[0], 4, lambda, lambdaAlpha)
		copy(v[n:], buf[:t])
	}
}

// Tanh64 applies tanh in place. NaN stays NaN.
func Tanh64(v []float64) {
	n := len(v) &^ 3
	if n > 0 {
		vtanh64(&v[0], n)
	}
	if t := len(v) - n; t > 0 {
		var buf [4]float64
		copy(buf[:], v[n:])
		vtanh64(&buf[0], 4)
		copy(v[n:], buf[:t])
	}
}

// SeluGrad64 sets dst[i] = g[i] * (y[i] > 0 ? lambda : y[i] +
// lambdaAlpha): the SELU derivative taken from the activation's output
// y, times the upstream gradient g. The three slices have one length.
func SeluGrad64(dst, g, y []float64, lambda, lambdaAlpha float64) {
	if len(g) != len(dst) || len(y) != len(dst) {
		panic("mat: SeluGrad64 length mismatch")
	}
	n := len(dst) &^ 3
	if n > 0 {
		vselugrad64(&dst[0], &g[0], &y[0], n, lambda, lambdaAlpha)
	}
	if t := len(dst) - n; t > 0 {
		var db, gb, yb [4]float64
		copy(gb[:], g[n:])
		copy(yb[:], y[n:])
		vselugrad64(&db[0], &gb[0], &yb[0], 4, lambda, lambdaAlpha)
		copy(dst[n:], db[:t])
	}
}
