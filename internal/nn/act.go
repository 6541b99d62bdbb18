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

// Activation is an element-wise nonlinearity whose derivative is a
// function of its output, so a layer caches the activated output alone
// and its backward pass re-evaluates no transcendental.
type Activation interface {
	// Name identifies the activation for serialization and debugging.
	Name() string
	// Apply computes the activation for a pre-activation value.
	Apply(x float64) float64
	// DerivFromOutput returns d act/d x given y = act(x).
	DerivFromOutput(y float64) float64
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

// DerivFromOutput implements Activation: for y = selu(x), d/dx = lambda
// when x > 0 (iff y > 0), else lambda*alpha*e^x = y + lambda*alpha.
func (SELU) DerivFromOutput(y float64) float64 {
	if y > 0 {
		return SELULambda
	}
	return y + seluLambdaAlpha
}

// Tanh is the hyperbolic tangent, used by the last decoder layer to match
// the range of the vectorized properties.
type Tanh struct{}

// Name implements Activation.
func (Tanh) Name() string { return "tanh" }

// Apply implements Activation.
func (Tanh) Apply(x float64) float64 { return math.Tanh(x) }

// DerivFromOutput implements Activation: d tanh/dx = 1 - tanh(x)^2.
func (Tanh) DerivFromOutput(y float64) float64 { return 1 - y*y }

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

// DerivFromOutput implements Activation: relu passes gradient iff the
// output is positive.
func (ReLU) DerivFromOutput(y float64) float64 {
	if y > 0 {
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

// DerivFromOutput implements Activation.
func (Identity) DerivFromOutput(y float64) float64 { return 1 }

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

// seluLambdaAlpha is lambda*alpha as the SELU kernels and the scalar
// SELU derivative both use it.
const seluLambdaAlpha = SELULambda * SELUAlpha

// fusedBiasActInPlace is the forward epilogue of a linear layer with a
// non-identity activation: it adds the (optional) bias row vector and
// applies the activation, overwriting pre with the activated output,
// which doubles as the cache the backward pass takes the derivative
// from. Under the asm kernel family, SELU and tanh run on mat's 4-lane
// kernels over the whole output, after the bias is added in its own
// pass. Otherwise (the plain family, and ReLU) one pass adds the bias
// and applies the activation per element, specialized per concrete
// activation so the per-element calls devirtualize and inline.
func fusedBiasActInPlace(act Activation, pre *mat.Dense, bias []float64) {
	if mat.ActKernels() {
		switch act.(type) {
		case SELU:
			addBias(pre, bias)
			mat.Selu64(pre.Data, SELULambda, seluLambdaAlpha)
			return
		case Tanh:
			addBias(pre, bias)
			mat.Tanh64(pre.Data)
			return
		}
	}
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
			panic("nn: no forward epilogue for activation " + act.Name())
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
			panic("nn: no forward epilogue for activation " + act.Name())
		}
	}
}

// addBias adds the bias row vector to every row of m; a nil bias adds
// nothing.
func addBias(m *mat.Dense, bias []float64) {
	if bias != nil {
		mat.AddRowVecTo(m, m, bias)
	}
}

// fusedActGradFromOut is the backward epilogue of a linear layer with a
// non-identity activation: dpre = grad ⊙ act'(out), the derivative taken
// from the cached output, and, when biasGrad is non-nil, the bias
// gradient's column sums, accumulated in row order. Under the asm
// kernel family SELU's branchy derivative runs on mat's 4-lane kernel
// (bit-identical to the scalar arm) and the column sums follow in their
// own pass; otherwise one pass does both.
func fusedActGradFromOut(act Activation, grad, out, dpre *mat.Dense, biasGrad []float64) {
	if _, selu := act.(SELU); selu && mat.ActKernels() {
		mat.SeluGrad64(dpre.Data, grad.Data, out.Data, SELULambda, seluLambdaAlpha)
		if biasGrad != nil {
			mat.ColSumsAcc(biasGrad, dpre)
		}
		return
	}
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
			panic("nn: no backward epilogue for activation " + act.Name())
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
			panic("nn: no backward epilogue for activation " + act.Name())
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
// rate of 10 % is a mispredicted branch every tenth unit. The four units
// of a draw are one unrolled step; a last draw serves the 1–3 units left
// over.
func (l *AlphaDropout) Forward(ws *mat.Workspace, x *mat.Dense, train bool) *mat.Dense {
	l.dropping = train && l.P > 0
	if !l.dropping {
		return x
	}
	q := 1 - l.P
	a := 1 / math.Sqrt(q+alphaPrime*alphaPrime*q*l.P)
	dropped := a*alphaPrime - a*l.P*alphaPrime // a·α' + b with b = -a·P·α'
	n := len(x.Data)
	if cap(l.slope) < n {
		l.slope = make([]float64, n)
	}
	l.slope = l.slope[:n]
	out := ws.GetRaw(x.Rows, x.Cols)
	keepBelow := uint64(q * (1 << 16))
	aBits := math.Float64bits(a)
	// A unit's slope is a's bits masked by the sign of (field −
	// keepBelow), which wraps to a set top bit exactly when the unit is
	// kept: a when kept, +0 when dropped.
	slope := func(field uint64) float64 {
		return math.Float64frombits(aBits & uint64(int64(field-keepBelow)>>63))
	}
	xs, ys, ks := x.Data[:n], out.Data[:n], l.slope
	i := 0
	for ; i+4 <= n; i += 4 {
		bits := l.Rng.Uint64()
		k0, k1 := slope(bits&0xffff), slope(bits>>16&0xffff)
		k2, k3 := slope(bits>>32&0xffff), slope(bits>>48)
		v, y, k := xs[i:i+4:i+4], ys[i:i+4:i+4], ks[i:i+4:i+4]
		y0, y1 := k0*(v[0]-alphaPrime)+dropped, k1*(v[1]-alphaPrime)+dropped
		y2, y3 := k2*(v[2]-alphaPrime)+dropped, k3*(v[3]-alphaPrime)+dropped
		k[0], k[1], k[2], k[3] = k0, k1, k2, k3
		y[0], y[1], y[2], y[3] = y0, y1, y2, y3
	}
	if i < n {
		bits := l.Rng.Uint64()
		for ; i < n; i++ {
			k := slope(bits & 0xffff)
			bits >>= 16
			ks[i] = k
			ys[i] = k*(xs[i]-alphaPrime) + dropped
		}
	}
	return out
}

// Backward implements Layer.
func (l *AlphaDropout) Backward(ws *mat.Workspace, grad *mat.Dense) *mat.Dense {
	if !l.dropping {
		return grad
	}
	out := ws.GetRaw(grad.Rows, grad.Cols)
	n := len(grad.Data)
	gs, ys, ks := grad.Data, out.Data[:n], l.slope[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		g, y, k := gs[i:i+4:i+4], ys[i:i+4:i+4], ks[i:i+4:i+4]
		y[0] = g[0] * k[0]
		y[1] = g[1] * k[1]
		y[2] = g[2] * k[2]
		y[3] = g[3] * k[3]
	}
	for ; i < n; i++ {
		ys[i] = gs[i] * ks[i]
	}
	return out
}

// Params implements Layer.
func (l *AlphaDropout) Params() []*Param { return nil }
