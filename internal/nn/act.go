package nn

import (
	"math"

	"repro/internal/mat"
)

// SELU constants from Klambauer et al., "Self-Normalizing Neural Networks".
const (
	SELUAlpha  = 1.6732632423543772
	SELULambda = 1.0507009873554805
)

// Activation is an element-wise nonlinearity whose derivative is a
// function of its output, so a layer caches the activated output alone
// and its backward pass re-evaluates no transcendental.
type Activation interface {
	// Name identifies the activation for serialization and debugging.
	Name() string
	// Apply computes the activation for a pre-activation value.
	Apply(x float32) float32
	// DerivFromOutput returns d act/d x given y = act(x).
	DerivFromOutput(y float32) float32
}

// SELU is the scaled exponential linear unit.
type SELU struct{}

// Name implements Activation.
func (SELU) Name() string { return "selu" }

// Apply implements Activation: the value mat.BiasSelu32's plain arm gives.
func (SELU) Apply(x float32) float32 {
	if x > 0 {
		return seluLambda32 * x
	}
	return seluLambdaAlpha32 * float32(math.Expm1(float64(x)))
}

// DerivFromOutput implements Activation: for y = selu(x), d/dx = lambda
// when x > 0 (iff y > 0), else lambda*alpha*e^x = y + lambda*alpha.
func (SELU) DerivFromOutput(y float32) float32 {
	if y > 0 {
		return seluLambda32
	}
	return y + seluLambdaAlpha32
}

// Tanh is the hyperbolic tangent, used by the last decoder layer to match
// the range of the vectorized properties.
type Tanh struct{}

// Name implements Activation.
func (Tanh) Name() string { return "tanh" }

// Apply implements Activation.
func (Tanh) Apply(x float32) float32 { return float32(math.Tanh(float64(x))) }

// DerivFromOutput implements Activation: d tanh/dx = 1 - tanh(x)^2.
func (Tanh) DerivFromOutput(y float32) float32 { return 1 - y*y }

// Identity is the no-op activation (linear output layers).
type Identity struct{}

// Name implements Activation.
func (Identity) Name() string { return "identity" }

// Apply implements Activation.
func (Identity) Apply(x float32) float32 { return x }

// DerivFromOutput implements Activation.
func (Identity) DerivFromOutput(y float32) float32 { return 1 }

// ActivationByName resolves a serialized activation name, panicking on
// a name LookupActivation does not know.
func ActivationByName(name string) Activation {
	act, ok := LookupActivation(name)
	if !ok {
		panic("nn: unknown activation " + name)
	}
	return act
}

// LookupActivation resolves a serialized activation name and reports
// whether it names one; config validation checks names with it.
func LookupActivation(name string) (Activation, bool) {
	switch name {
	case "selu":
		return SELU{}, true
	case "tanh":
		return Tanh{}, true
	case "identity":
		return Identity{}, true
	}
	return nil, false
}

// SELU constants rounded to float32, as the kernels use them.
const (
	seluLambda32      float32 = SELULambda
	seluLambdaAlpha32 float32 = SELULambda * SELUAlpha
)

// biasActInPlace is the forward epilogue of a linear layer: it adds the
// (optional) bias row vector and applies the activation, overwriting
// pre with the activated output, which doubles as the cache the
// backward pass takes the derivative from. SELU and tanh run on mat's
// kernels over the whole output (8 lanes a step under the asm family),
// SELU with the bias added in the same pass.
func biasActInPlace(act Activation, pre *mat.DenseF32, bias []float32) {
	if _, selu := act.(SELU); selu {
		mat.BiasSelu32(pre.Data, bias, seluLambda32, seluLambdaAlpha32)
		return
	}
	if bias != nil {
		mat.AddRowVecToF32(pre, pre, bias)
	}
	switch act.(type) {
	case Identity:
	case Tanh:
		mat.Tanh32(pre.Data)
	default:
		panic("nn: no forward epilogue for activation " + act.Name())
	}
}

// actGradFromOut is the backward epilogue of a linear layer with a
// non-identity activation: dpre = grad ⊙ act'(out), the derivative taken
// from the cached output, and, when biasGrad is non-nil, the bias
// gradient's column sums, accumulated in row order. SELU's branchy
// derivative runs on mat's kernel (bit-identical across the families).
func actGradFromOut(act Activation, grad, out, dpre *mat.DenseF32, biasGrad []float32) {
	g, o, d := grad.Data, out.Data[:len(grad.Data)], dpre.Data[:len(grad.Data)]
	switch a := act.(type) {
	case SELU:
		mat.SeluGrad32(d, g, o, seluLambda32, seluLambdaAlpha32)
	case Tanh:
		for i, gv := range g {
			d[i] = gv * a.DerivFromOutput(o[i])
		}
	default:
		panic("nn: no backward epilogue for activation " + act.Name())
	}
	if biasGrad != nil {
		mat.ColSumsAccF32(biasGrad, dpre)
	}
}

// AlphaDropout implements the SELU-compatible dropout of Klambauer et al.:
// dropped units are set to the negative saturation value alpha' and the
// result is affinely transformed to preserve zero mean and unit variance.
type AlphaDropout struct {
	// P is the drop probability.
	P float64
	// Rng provides reproducible masks; required when P > 0.
	Rng *Rand

	// slope is d out/d in per unit of the last training-mode Forward:
	// the affine scale for a kept unit, 0 for a dropped one; words holds
	// that pass's draws. The buffers outlive identity passes, which only
	// clear dropping, so an eval pass between two training steps costs
	// the next step nothing.
	slope    []float32
	words    []uint64
	dropping bool // the last Forward dropped units
}

// NewAlphaDropout builds an alpha-dropout layer with drop probability p.
func NewAlphaDropout(p float64, rng *Rand) *AlphaDropout {
	return &AlphaDropout{P: p, Rng: rng}
}

// alphaPrime is the negative saturation value of SELU: -lambda*alpha.
const alphaPrime = -SELULambda * SELUAlpha

// Forward is the dropout's forward pass. Dropout is active only when
// train is true and P > 0; otherwise it is the identity.
//
// One 64-bit draw decides four units, 16 bits each (a unit is kept when
// its field is below q·2¹⁶, so the keep probability is q to within
// 2⁻¹⁶): the pass draws its words first, in one Fill, a last one for
// the 1–3 units left over, and mat.AlphaDropout32 applies them, 8 units
// a step under the asm family. The keep/drop choice is arithmetic, not
// a branch: a drop rate of 10 % is a mispredicted branch every tenth
// unit. The affine constants are computed in float64 and rounded once.
func (l *AlphaDropout) Forward(ws *mat.WorkspaceF32, x *mat.DenseF32, train bool) *mat.DenseF32 {
	l.dropping = train && l.P > 0
	if !l.dropping {
		return x
	}
	p := l.draw(len(x.Data))
	out := ws.GetRaw(x.Rows, x.Cols)
	mat.AlphaDropout32(out.Data, l.slope, x.Data, p.Words, p.KeepBelow, p.A, p.AP, p.Dropped)
	return out
}

// draw readies a training-mode pass over n units: it sizes the slope
// and word buffers, draws the pass's words in one Fill, and returns them
// with the pass's constants — and the SELU constants, for the fused
// passes of mat, whose layers around the dropout are SELU ones.
func (l *AlphaDropout) draw(n int) mat.AEPass {
	q := 1 - l.P
	a := 1 / math.Sqrt(q+alphaPrime*alphaPrime*q*l.P)
	if cap(l.slope) < n {
		l.slope = make([]float32, n)
		l.words = make([]uint64, (n+3)/4)
	}
	l.slope, l.words = l.slope[:n], l.words[:(n+3)/4]
	l.Rng.Fill(l.words)
	l.dropping = true
	return mat.AEPass{
		Lambda: seluLambda32, LambdaAlpha: seluLambdaAlpha32,
		Words: l.words, KeepBelow: uint32(q * (1 << 16)),
		A: float32(a), AP: alphaPrime,
		Dropped: float32(a*alphaPrime - a*l.P*alphaPrime), // a·α' + b with b = -a·P·α'
	}
}

// Backward multiplies grad by the slope of the last Forward: the
// identity after an identity pass.
func (l *AlphaDropout) Backward(ws *mat.WorkspaceF32, grad *mat.DenseF32) *mat.DenseF32 {
	if !l.dropping {
		return grad
	}
	out := ws.GetRaw(grad.Rows, grad.Cols)
	mat.MulElems32(out.Data, grad.Data, l.slope[:len(grad.Data)])
	return out
}
