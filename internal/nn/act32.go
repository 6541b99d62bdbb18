package nn

import "math"

// Fast float32 transcendentals for the serving path. Scalar math.Exp
// (SELU) and math.Tanh cost a double-digit share of a forward pass, so
// the quantized path replaces them with single-precision polynomial
// approximations (the classic Cephes expf/tanhf minimax fits), and
// under the asm kernel family SELU runs 8 lanes at a time (mat.Selu32).
// Training's float64 passes have their own 4-lane kernels
// (mat.Selu64/Tanh64, from LinearAct's epilogues) under asm. The
// float32 fits:
//
//   - exp32: maximum relative error ~2e-7 over [-87, 88] — below one
//     float32 ulp of the subsequent arithmetic, so activation error is
//     indistinguishable from float32 rounding itself.
//   - tanh32: maximum relative error ~1e-7 over the real line.
//
// End-to-end, quantized predictions stay within ~1e-4 relative error
// of the float64 model (dominated by float32 weight rounding, not by
// these approximations); the documented serving bound of 1e-3 is
// pinned by TestQuantizedPredictionAccuracy in core.

// exp32 approximates e^x in float32: range reduction x = n*ln2 + r
// with a two-part ln2 (so r is exact to float32), a degree-5 minimax
// polynomial for e^r on [-ln2/2, ln2/2], and exponent-bit assembly of
// 2^n.
func exp32(x float32) float32 {
	const (
		log2e float32 = 1.44269504088896341
		c1    float32 = 0.693359375    // high part of ln2
		c2    float32 = -2.12194440e-4 // low part of ln2
	)
	if x > 88 {
		return float32(math.Inf(1))
	}
	if x < -87.33655 {
		return 0
	}
	f := log2e*x + 0.5
	n := int32(f)
	if float32(n) > f { // int32() truncates toward zero; we need floor
		n--
	}
	r := x - float32(n)*c1
	r -= float32(n) * c2
	z := r * r
	p := float32(1.9875691500e-4)
	p = p*r + 1.3981999507e-3
	p = p*r + 8.3334519073e-3
	p = p*r + 4.1665795894e-2
	p = p*r + 1.6666665459e-1
	p = p*r + 5.0000001201e-1
	y := p*z + r + 1
	return y * math.Float32frombits(uint32(n+127)<<23)
}

// tanh32 approximates tanh(x) in float32: a degree-6 odd minimax
// polynomial below |x| < 0.625, 1 - 2/(e^{2|x|}+1) above.
func tanh32(x float32) float32 {
	z := x
	if z < 0 {
		z = -z
	}
	if z < 0.625 {
		s := x * x
		p := float32(-5.70498872745e-3)
		p = p*s + 2.06390887954e-2
		p = p*s - 5.37397155531e-2
		p = p*s + 1.33314422036e-1
		p = p*s - 3.33332819422e-1
		return p*s*x + x
	}
	r := 1 - 2/(exp32(2*z)+1)
	if x < 0 {
		return -r
	}
	return r
}

// SELU constants pre-rounded to float32 for the serving loops.
const (
	seluLambda32      float32 = SELULambda
	seluLambdaAlpha32 float32 = SELULambda * SELUAlpha
)

// selu32 is the float32 SELU built on exp32.
func selu32(x float32) float32 {
	if x > 0 {
		return seluLambda32 * x
	}
	return seluLambdaAlpha32 * (exp32(x) - 1)
}
