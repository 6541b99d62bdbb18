package nn

import (
	"math"
	"math/rand"

	"repro/internal/mat"
)

// SELU constants from Klambauer et al., "Self-Normalizing Neural Networks".
const (
	SELUAlpha  = 1.6732632423543772
	SELULambda = 1.0507009873554805
)

// Activation is an element-wise nonlinearity with an analytic derivative.
type Activation interface {
	// Name identifies the activation for serialization and debugging.
	Name() string
	// Apply computes the activation for a pre-activation value.
	Apply(x float64) float64
	// Derivative computes d act/d x at pre-activation value x.
	Derivative(x float64) float64
}

// SELU is the scaled exponential linear unit.
type SELU struct{}

// Name implements Activation.
func (SELU) Name() string { return "selu" }

// Apply implements Activation.
func (SELU) Apply(x float64) float64 {
	if x > 0 {
		return SELULambda * x
	}
	return SELULambda * SELUAlpha * (math.Exp(x) - 1)
}

// Derivative implements Activation.
func (SELU) Derivative(x float64) float64 {
	if x > 0 {
		return SELULambda
	}
	return SELULambda * SELUAlpha * math.Exp(x)
}

// Tanh is the hyperbolic tangent, used by the last decoder layer to match
// the range of the vectorized properties.
type Tanh struct{}

// Name implements Activation.
func (Tanh) Name() string { return "tanh" }

// Apply implements Activation.
func (Tanh) Apply(x float64) float64 { return math.Tanh(x) }

// Derivative implements Activation.
func (Tanh) Derivative(x float64) float64 {
	t := math.Tanh(x)
	return 1 - t*t
}

// ReLU is the rectified linear unit (used by ablation benches).
type ReLU struct{}

// Name implements Activation.
func (ReLU) Name() string { return "relu" }

// Apply implements Activation.
func (ReLU) Apply(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// Derivative implements Activation.
func (ReLU) Derivative(x float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}

// Identity is the no-op activation (linear output layers).
type Identity struct{}

// Name implements Activation.
func (Identity) Name() string { return "identity" }

// Apply implements Activation.
func (Identity) Apply(x float64) float64 { return x }

// Derivative implements Activation.
func (Identity) Derivative(x float64) float64 { return 1 }

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
// whether it names one; decoders check untrusted names with it.
func LookupActivation(name string) (Activation, bool) {
	switch name {
	case "selu":
		return SELU{}, true
	case "tanh":
		return Tanh{}, true
	case "relu":
		return ReLU{}, true
	case "identity":
		return Identity{}, true
	}
	return nil, false
}

// ActLayer applies an Activation element-wise and caches the
// pre-activation input for the backward pass.
type ActLayer struct {
	Act   Activation
	input *mat.Dense
}

// NewActLayer wraps act as a Layer.
func NewActLayer(act Activation) *ActLayer { return &ActLayer{Act: act} }

// Forward implements Layer. The element loops are specialized per
// concrete activation so the per-element calls devirtualize and inline;
// the results are identical to the generic interface loop.
func (l *ActLayer) Forward(ws *mat.Workspace, x *mat.Dense, train bool) *mat.Dense {
	l.input = x
	out := ws.GetRaw(x.Rows, x.Cols)
	switch act := l.Act.(type) {
	case SELU:
		for i, v := range x.Data {
			out.Data[i] = act.Apply(v)
		}
	case Tanh:
		for i, v := range x.Data {
			out.Data[i] = math.Tanh(v)
		}
	case ReLU:
		for i, v := range x.Data {
			out.Data[i] = act.Apply(v)
		}
	case Identity:
		copy(out.Data, x.Data)
	default:
		for i, v := range x.Data {
			out.Data[i] = l.Act.Apply(v)
		}
	}
	return out
}

// Backward implements Layer.
func (l *ActLayer) Backward(ws *mat.Workspace, grad *mat.Dense) *mat.Dense {
	if l.input == nil {
		panic("nn: ActLayer.Backward before Forward")
	}
	out := ws.GetRaw(grad.Rows, grad.Cols)
	in := l.input.Data
	switch act := l.Act.(type) {
	case SELU:
		for i, g := range grad.Data {
			out.Data[i] = g * act.Derivative(in[i])
		}
	case Tanh:
		for i, g := range grad.Data {
			out.Data[i] = g * act.Derivative(in[i])
		}
	case ReLU:
		for i, g := range grad.Data {
			out.Data[i] = g * act.Derivative(in[i])
		}
	case Identity:
		copy(out.Data, grad.Data)
	default:
		for i, g := range grad.Data {
			out.Data[i] = l.Act.Derivative(in[i]) * g
		}
	}
	return out
}

// Params implements Layer. Activations are parameter-free.
func (l *ActLayer) Params() []*Param { return nil }

// outputDeriv marks activations whose derivative can be computed from
// the activation output instead of the pre-activation input. For
// these, the fused layers cache the (in-place) output only: the
// forward pass saves a workspace buffer and a write stream, and the
// backward pass saves the transcendental re-evaluation the
// input-based Derivative would need (math.Exp for SELU, math.Tanh for
// Tanh — together a double-digit share of a training step).
type outputDeriv interface {
	// DerivFromOutput returns d act/d x given y = act(x).
	DerivFromOutput(y float64) float64
}

// DerivFromOutput implements outputDeriv: for y = selu(x),
// d/dx = lambda when x > 0 (iff y > 0), else lambda*alpha*e^x = y + lambda*alpha.
func (SELU) DerivFromOutput(y float64) float64 {
	if y > 0 {
		return SELULambda
	}
	return y - alphaPrime
}

// DerivFromOutput implements outputDeriv: d tanh/dx = 1 - tanh(x)^2.
func (Tanh) DerivFromOutput(y float64) float64 { return 1 - y*y }

// DerivFromOutput implements outputDeriv: relu passes gradient iff the
// output is positive.
func (ReLU) DerivFromOutput(y float64) float64 {
	if y > 0 {
		return 1
	}
	return 0
}

// fusedBiasActInPlace is the fused forward epilogue of a linear layer
// for output-derivative activations: in one pass it adds the
// (optional) bias row vector and applies the activation, overwriting
// pre with the activated output. Fusing the passes — and needing no
// separate pre-activation buffer — cuts the old
// AddRowVecTo-then-ActLayer pipeline from three passes over two
// buffers to one pass over one. The loops are specialized per concrete
// activation so the per-element calls devirtualize and inline.
func fusedBiasActInPlace(act Activation, pre *mat.Dense, bias []float64) {
	if bias == nil {
		switch a := act.(type) {
		case SELU:
			for i, v := range pre.Data {
				pre.Data[i] = a.Apply(v)
			}
		case Tanh:
			for i, v := range pre.Data {
				pre.Data[i] = math.Tanh(v)
			}
		case ReLU:
			for i, v := range pre.Data {
				pre.Data[i] = a.Apply(v)
			}
		default:
			// Any other outputDeriv activation: interface calls, still
			// fused and in place.
			for i, v := range pre.Data {
				pre.Data[i] = act.Apply(v)
			}
		}
		return
	}
	for r := 0; r < pre.Rows; r++ {
		pr := pre.Row(r)
		switch a := act.(type) {
		case SELU:
			for j, b := range bias {
				pr[j] = a.Apply(pr[j] + b)
			}
		case Tanh:
			for j, b := range bias {
				pr[j] = math.Tanh(pr[j] + b)
			}
		case ReLU:
			for j, b := range bias {
				pr[j] = a.Apply(pr[j] + b)
			}
		default:
			for j, b := range bias {
				pr[j] = act.Apply(pr[j] + b)
			}
		}
	}
}

// fusedActGradFromOut is the fused backward epilogue for
// output-derivative activations: in one pass it computes
// dpre = grad ⊙ act'(out) — with the derivative taken from the cached
// output, avoiding any transcendental re-evaluation — and, when
// biasGrad is non-nil, accumulates the bias gradient column sums in
// the same sweep.
func fusedActGradFromOut(act Activation, grad, out, dpre *mat.Dense, biasGrad []float64) {
	od, _ := act.(outputDeriv) // non-nil on every path that routes here
	if biasGrad == nil {
		o := out.Data
		switch a := act.(type) {
		case SELU:
			for i, g := range grad.Data {
				dpre.Data[i] = g * a.DerivFromOutput(o[i])
			}
		case Tanh:
			for i, g := range grad.Data {
				dpre.Data[i] = g * a.DerivFromOutput(o[i])
			}
		case ReLU:
			for i, g := range grad.Data {
				dpre.Data[i] = g * a.DerivFromOutput(o[i])
			}
		default:
			for i, g := range grad.Data {
				dpre.Data[i] = g * od.DerivFromOutput(o[i])
			}
		}
		return
	}
	for r := 0; r < grad.Rows; r++ {
		gr := grad.Row(r)
		or := out.Row(r)
		dr := dpre.Row(r)
		switch a := act.(type) {
		case SELU:
			for j, g := range gr {
				d := g * a.DerivFromOutput(or[j])
				dr[j] = d
				biasGrad[j] += d
			}
		case Tanh:
			for j, g := range gr {
				d := g * a.DerivFromOutput(or[j])
				dr[j] = d
				biasGrad[j] += d
			}
		case ReLU:
			for j, g := range gr {
				d := g * a.DerivFromOutput(or[j])
				dr[j] = d
				biasGrad[j] += d
			}
		default:
			for j, g := range gr {
				d := g * od.DerivFromOutput(or[j])
				dr[j] = d
				biasGrad[j] += d
			}
		}
	}
}

// fusedBiasAct is the fused forward epilogue for custom activations
// without an output-form derivative: one pass adds the (optional) bias
// row vector into pre — which thereby becomes the cached
// pre-activation — and writes the activation into out. The built-in
// activations never reach it; they take the devirtualized in-place
// path above.
func fusedBiasAct(act Activation, pre, out *mat.Dense, bias []float64) {
	if bias == nil {
		for i, v := range pre.Data {
			out.Data[i] = act.Apply(v)
		}
		return
	}
	for r := 0; r < pre.Rows; r++ {
		pr := pre.Row(r)
		or := out.Row(r)
		for j, b := range bias {
			p := pr[j] + b
			pr[j] = p
			or[j] = act.Apply(p)
		}
	}
}

// fusedActGrad is the fused backward epilogue: in one pass it computes
// dpre = grad ⊙ act'(pre) and, when biasGrad is non-nil, accumulates
// the bias gradient column sums — folding what used to be an ActLayer
// backward pass plus a separate ColSumsAcc sweep into a single loop.
func fusedActGrad(act Activation, grad, pre, dpre *mat.Dense, biasGrad []float64) {
	if biasGrad == nil {
		in := pre.Data
		for i, g := range grad.Data {
			dpre.Data[i] = g * act.Derivative(in[i])
		}
		return
	}
	for r := 0; r < grad.Rows; r++ {
		gr := grad.Row(r)
		pr := pre.Row(r)
		dr := dpre.Row(r)
		for j, g := range gr {
			d := g * act.Derivative(pr[j])
			dr[j] = d
			biasGrad[j] += d
		}
	}
}

// AlphaDropout implements the SELU-compatible dropout of Klambauer et al.:
// dropped units are set to the negative saturation value alpha' and the
// result is affinely transformed to preserve zero mean and unit variance.
type AlphaDropout struct {
	// P is the drop probability.
	P float64
	// Rng provides reproducible masks; required when P > 0.
	Rng *rand.Rand

	// slope is d out/d in per unit of the last training-mode Forward:
	// the affine scale for a kept unit, 0 for a dropped one. The buffer
	// outlives identity passes, which only clear dropping, so an eval
	// pass between two training steps costs the next step nothing.
	slope    []float64
	dropping bool // the last Forward dropped units
}

// NewAlphaDropout builds an alpha-dropout layer with drop probability p.
func NewAlphaDropout(p float64, rng *rand.Rand) *AlphaDropout {
	return &AlphaDropout{P: p, Rng: rng}
}

// alphaPrime is the negative saturation value of SELU: -lambda*alpha.
const alphaPrime = -SELULambda * SELUAlpha

// Forward implements Layer. Dropout is active only when train is true and
// P > 0; otherwise it is the identity.
//
// One 64-bit draw decides four units, 16 bits each (a unit is kept when
// its field is below q·2¹⁶, so the keep probability is q to within
// 2⁻¹⁶), and the keep/drop choice is arithmetic, not a branch: a drop
// rate of 10 % is a mispredicted branch every tenth unit.
func (l *AlphaDropout) Forward(ws *mat.Workspace, x *mat.Dense, train bool) *mat.Dense {
	l.dropping = train && l.P > 0
	if !l.dropping {
		return x
	}
	q := 1 - l.P
	a := 1 / math.Sqrt(q+alphaPrime*alphaPrime*q*l.P)
	dropped := a*alphaPrime - a*l.P*alphaPrime // a·α' + b with b = -a·P·α'
	if cap(l.slope) < len(x.Data) {
		l.slope = make([]float64, len(x.Data))
	}
	l.slope = l.slope[:len(x.Data)]
	out := ws.GetRaw(x.Rows, x.Cols)
	keepBelow := uint64(q * (1 << 16))
	var bits uint64
	for i, v := range x.Data {
		if i%4 == 0 {
			bits = l.Rng.Uint64()
		}
		// (field - keepBelow) wraps to a set top bit exactly when kept.
		k := a * float64(((bits&0xffff)-keepBelow)>>63)
		bits >>= 16
		l.slope[i] = k
		out.Data[i] = k*(v-alphaPrime) + dropped
	}
	return out
}

// Backward implements Layer.
func (l *AlphaDropout) Backward(ws *mat.Workspace, grad *mat.Dense) *mat.Dense {
	if !l.dropping {
		return grad
	}
	out := ws.GetRaw(grad.Rows, grad.Cols)
	for i, g := range grad.Data {
		out.Data[i] = g * l.slope[i]
	}
	return out
}

// Params implements Layer.
func (l *AlphaDropout) Params() []*Param { return nil }
