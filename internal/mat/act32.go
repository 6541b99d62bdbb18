package mat

import (
	"fmt"
	"math"
)

// Float32 activation kernels: the SELU and tanh epilogues of every
// layer, forward and backward, in training and in serving. Under the
// asm family each runs 8 lanes a step on an AVX2/FMA3 kernel of
// kernel_amd64.s; SELU and tanh go through one vector expm1f, so they
// stay within 2 ulp of lambdaAlpha*expm1 and of float32(math.Tanh)
// (TestTanh32WithinUlps, TestSelu32WithinUlps), and the SELU gradient is
// the scalar formula's two IEEE operations, bit-identical to its plain
// arm. A ragged tail runs through an 8-lane stack buffer, so an
// element's result depends only on its value, never on its position or
// the slice's length. The plain family computes each element through
// math.Expm1 and math.Tanh in float64, rounded once.

// negZero is the bias of an unbiased SELU pass: x + (−0) is x for every
// x, −0 included.
var negZero = func() (z [8]float32) {
	for i := range z {
		z[i] = float32(math.Copysign(0, -1))
	}
	return z
}()

// BiasSelu32 is the forward epilogue of a biased SELU layer in one
// pass: v holds rows of len(bias) values, and each value x + bias[j] —
// the float32 sum a separate bias pass would store — goes through SELU:
// lambda*x for x > 0, else lambdaAlpha*expm1(x), NaN staying NaN. A nil
// bias adds nothing. Under the asm family a bias whose length is a
// multiple of 8 rides along the kernel's 8-lane steps; another is added
// first.
func BiasSelu32(v, bias []float32, lambda, lambdaAlpha float32) {
	nb := len(bias)
	if nb > 0 && len(v)%nb != 0 {
		panic(fmt.Sprintf("mat: BiasSelu32 of %d values by a bias of %d", len(v), nb))
	}
	if !useAsm {
		for i, x := range v {
			if nb > 0 {
				x += bias[i%nb]
			}
			v[i] = seluScalar32(x, lambda, lambdaAlpha)
		}
		return
	}
	b := negZero[:]
	if nb%8 == 0 && nb > 0 {
		b = bias
	} else if nb > 0 {
		for r := 0; r < len(v); r += nb {
			row := v[r : r+nb]
			for j, x := range bias {
				row[j] += x
			}
		}
	}
	n := len(v) &^ 7
	if n > 0 {
		vselu32(&v[0], n, &b[0], len(b), lambda, lambdaAlpha)
	}
	if t := len(v) - n; t > 0 {
		var buf [8]float32
		copy(buf[:], v[n:])
		vselu32(&buf[0], 8, &negZero[0], 8, lambda, lambdaAlpha)
		copy(v[n:], buf[:t])
	}
}

// Tanh32 applies tanh in place. NaN stays NaN.
func Tanh32(v []float32) {
	if !useAsm {
		for i, x := range v {
			v[i] = tanhScalar32(x)
		}
		return
	}
	n := len(v) &^ 7
	if n > 0 {
		vtanh32(&v[0], n)
	}
	if t := len(v) - n; t > 0 {
		var buf [8]float32
		copy(buf[:], v[n:])
		vtanh32(&buf[0], 8)
		copy(v[n:], buf[:t])
	}
}

// SeluGrad32 sets dst[i] = g[i] * (y[i] > 0 ? lambda : y[i] +
// lambdaAlpha): the SELU derivative taken from the activation's output
// y, times the upstream gradient g. The three slices have one length.
func SeluGrad32(dst, g, y []float32, lambda, lambdaAlpha float32) {
	if len(g) != len(dst) || len(y) != len(dst) {
		panic("mat: SeluGrad32 length mismatch")
	}
	if !useAsm {
		for i, gv := range g {
			dst[i] = gv * seluDeriv32(y[i], lambda, lambdaAlpha)
		}
		return
	}
	n := len(dst) &^ 7
	if n > 0 {
		vselugrad32(&dst[0], &g[0], &y[0], n, lambda, lambdaAlpha)
	}
	if t := len(dst) - n; t > 0 {
		var db, gb, yb [8]float32
		copy(gb[:], g[n:])
		copy(yb[:], y[n:])
		vselugrad32(&db[0], &gb[0], &yb[0], 8, lambda, lambdaAlpha)
		copy(dst[n:], db[:t])
	}
}

// seluScalar32 is SELU of one value, the plain family's arm.
func seluScalar32(x, lambda, lambdaAlpha float32) float32 {
	if x > 0 {
		return lambda * x
	}
	return lambdaAlpha * float32(math.Expm1(float64(x)))
}

// seluDeriv32 is the SELU derivative from the output y: lambda where
// y > 0, else y + lambdaAlpha.
func seluDeriv32(y, lambda, lambdaAlpha float32) float32 {
	if y > 0 {
		return lambda
	}
	return y + lambdaAlpha
}

// tanhScalar32 is tanh of one value, the plain family's arm.
func tanhScalar32(x float32) float32 { return float32(math.Tanh(float64(x))) }
