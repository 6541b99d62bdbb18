package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// Layer is one differentiable stage of a network. Forward caches whatever
// it needs for Backward; Backward consumes the gradient w.r.t. its output,
// accumulates parameter gradients, and returns the gradient w.r.t. its
// input.
//
// Both passes draw their output buffers from the caller's workspace, so a
// steady-state training step allocates nothing. Buffers returned by
// Forward/Backward (and the input caches they keep) are valid until the
// workspace is Reset; callers own the Reset cadence — typically once per
// training step, before the forward pass. A nil workspace is allowed and
// falls back to allocating.
type Layer interface {
	Forward(ws *mat.Workspace, x *mat.Dense, train bool) *mat.Dense
	Backward(ws *mat.Workspace, grad *mat.Dense) *mat.Dense
	Params() []*Param
}

// Linear is a fully connected layer computing y = x*W + b with
// W ∈ R^{In x Out}. The bias is optional: Bellamy's auto-encoder waives
// additive biases (paper §IV-A).
type Linear struct {
	In, Out int
	W       *Param
	B       *Param // nil when the layer has no bias

	input *mat.Dense
}

// NewLinear constructs a linear layer and initializes its weights.
func NewLinear(name string, in, out int, withBias bool, scheme InitScheme, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out, W: NewParam(name+".W", in, out)}
	InitDense(l.W.Value, scheme, rng)
	if withBias {
		l.B = NewParam(name+".b", 1, out)
	}
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(ws *mat.Workspace, x *mat.Dense, train bool) *mat.Dense {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear %s input cols %d != in %d", l.W.Name, x.Cols, l.In))
	}
	l.input = x
	y := ws.GetRaw(x.Rows, l.Out)
	mat.MulTo(y, x, l.W.Value)
	if l.B != nil {
		mat.AddRowVecTo(y, y, l.B.Value.Row(0))
	}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(ws *mat.Workspace, grad *mat.Dense) *mat.Dense {
	if l.input == nil {
		panic("nn: Linear.Backward before Forward")
	}
	if grad.Cols != l.Out {
		panic(fmt.Sprintf("nn: Linear %s grad cols %d != out %d", l.W.Name, grad.Cols, l.Out))
	}
	// dW += xᵀ * grad, straight into the parameter gradient.
	mat.MulATBAcc(l.W.Grad, l.input, grad)
	if l.B != nil {
		mat.ColSumsAcc(l.B.Grad.Row(0), grad)
	}
	// dx = grad * Wᵀ
	dx := ws.GetRaw(grad.Rows, l.In)
	mat.MulABTTo(dx, grad, l.W.Value)
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []*Param {
	if l.B == nil {
		return []*Param{l.W}
	}
	return []*Param{l.W, l.B}
}

// LinearAct is a fully connected layer with its activation fused in:
// y = act(x*W + b). Compared to a Linear followed by an ActLayer it
// runs the bias-add and the activation in a single pass over the
// output (one read of the matmul result instead of three), computes
// the backward activation-derivative ∘ upstream-gradient product and
// the bias gradient in one sweep, and needs one less workspace buffer
// per pass. Parameter names match the unfused pair (name.W / name.b),
// so serialized states are interchangeable.
type LinearAct struct {
	In, Out int
	W       *Param
	B       *Param // nil when the layer has no bias
	Act     Activation

	input *mat.Dense
	// cache holds what Backward needs: the activated output when Act
	// has an output-form derivative (cacheIsOut), the pre-activation
	// otherwise, nil for Identity (whose derivative is constant).
	cache      *mat.Dense
	cacheIsOut bool
}

// NewLinearAct constructs a fused linear+activation layer.
func NewLinearAct(name string, in, out int, withBias bool, act Activation, scheme InitScheme, rng *rand.Rand) *LinearAct {
	l := &LinearAct{In: in, Out: out, W: NewParam(name+".W", in, out), Act: act}
	InitDense(l.W.Value, scheme, rng)
	if withBias {
		l.B = NewParam(name+".b", 1, out)
	}
	return l
}

// Forward implements Layer.
func (l *LinearAct) Forward(ws *mat.Workspace, x *mat.Dense, train bool) *mat.Dense {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: LinearAct %s input cols %d != in %d", l.W.Name, x.Cols, l.In))
	}
	l.input = x
	pre := ws.GetRaw(x.Rows, l.Out)
	mat.MulTo(pre, x, l.W.Value)
	if _, id := l.Act.(Identity); id {
		// Identity needs no cache and no second buffer: the bias (if
		// any) is added in place and pre is the output.
		l.cache = nil
		if l.B != nil {
			mat.AddRowVecTo(pre, pre, l.B.Value.Row(0))
		}
		return pre
	}
	var bias []float64
	if l.B != nil {
		bias = l.B.Value.Row(0)
	}
	if _, ok := l.Act.(outputDeriv); ok {
		// Bias and activation applied in place, single pass, single
		// buffer; the output doubles as the derivative cache.
		fusedBiasActInPlace(l.Act, pre, bias)
		l.cache = pre
		l.cacheIsOut = true
		return pre
	}
	out := ws.GetRaw(x.Rows, l.Out)
	fusedBiasAct(l.Act, pre, out, bias) // pre becomes x*W+b in the same pass
	l.cache = pre
	l.cacheIsOut = false
	return out
}

// Backward implements Layer.
func (l *LinearAct) Backward(ws *mat.Workspace, grad *mat.Dense) *mat.Dense {
	dpre := l.backwardParams(ws, grad)
	// dx = dpre * Wᵀ
	dx := ws.GetRaw(grad.Rows, l.In)
	mat.MulABTTo(dx, dpre, l.W.Value)
	return dx
}

// BackwardParams is Backward without the input gradient, for a layer
// whose input is data: nobody consumes dx, and its GEMM is a third of
// the layer's backward cost.
func (l *LinearAct) BackwardParams(ws *mat.Workspace, grad *mat.Dense) {
	l.backwardParams(ws, grad)
}

// backwardParams accumulates the weight and bias gradients and returns
// the pre-activation gradient the input gradient is computed from.
func (l *LinearAct) backwardParams(ws *mat.Workspace, grad *mat.Dense) *mat.Dense {
	if l.input == nil {
		panic("nn: LinearAct.Backward before Forward")
	}
	if grad.Cols != l.Out {
		panic(fmt.Sprintf("nn: LinearAct %s grad cols %d != out %d", l.W.Name, grad.Cols, l.Out))
	}
	dpre := grad
	if _, id := l.Act.(Identity); !id {
		var biasGrad []float64
		if l.B != nil {
			biasGrad = l.B.Grad.Row(0)
		}
		dpre = ws.GetRaw(grad.Rows, l.Out)
		if l.cacheIsOut {
			fusedActGradFromOut(l.Act, grad, l.cache, dpre, biasGrad)
		} else {
			fusedActGrad(l.Act, grad, l.cache, dpre, biasGrad)
		}
	} else if l.B != nil {
		mat.ColSumsAcc(l.B.Grad.Row(0), grad)
	}
	// dW += xᵀ * dpre, straight into the parameter gradient.
	mat.MulATBAcc(l.W.Grad, l.input, dpre)
	return dpre
}

// Params implements Layer.
func (l *LinearAct) Params() []*Param {
	if l.B == nil {
		return []*Param{l.W}
	}
	return []*Param{l.W, l.B}
}

// MLP is a sequential stack of layers. Every network in the Bellamy
// architecture (f, g, h, z) is a two-layer MLP; the type supports any
// depth for ablations.
type MLP struct {
	Layers []Layer

	// rows and distinct are the occurrence index and the distinct-row
	// count of the last ForwardRows call, kept for BackwardRows.
	rows     []int32
	distinct int
}

// NewMLP wraps layers into a network.
func NewMLP(layers ...Layer) *MLP { return &MLP{Layers: layers} }

// Forward implements Layer by chaining all constituent layers.
func (m *MLP) Forward(ws *mat.Workspace, x *mat.Dense, train bool) *mat.Dense {
	for _, l := range m.Layers {
		x = l.Forward(ws, x, train)
	}
	return x
}

// Backward implements Layer by back-propagating through all layers.
func (m *MLP) Backward(ws *mat.Workspace, grad *mat.Dense) *mat.Dense {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(ws, grad)
	}
	return grad
}

// paramsBackwarder is a layer that can skip its input gradient.
type paramsBackwarder interface {
	BackwardParams(ws *mat.Workspace, grad *mat.Dense)
}

// BackwardParams is Backward for a network whose input is data: the
// first layer accumulates its parameter gradients and computes no
// input gradient.
func (m *MLP) BackwardParams(ws *mat.Workspace, grad *mat.Dense) {
	for i := len(m.Layers) - 1; i > 0; i-- {
		grad = m.Layers[i].Backward(ws, grad)
	}
	m.backwardFirst(ws, grad)
}

// backwardFirst runs the first layer's backward pass without the input
// gradient where the layer can skip it.
func (m *MLP) backwardFirst(ws *mat.Workspace, grad *mat.Dense) {
	if l, ok := m.Layers[0].(paramsBackwarder); ok {
		l.BackwardParams(ws, grad)
		return
	}
	m.Layers[0].Backward(ws, grad)
}

// ForwardRows is Forward on the matrix whose i-th row is x.Row(rows[i]),
// without building it: the first layer runs once per distinct row of x,
// its output is gathered per occurrence, and the remaining layers (the
// first of which may be a dropout that makes occurrences differ) run on
// the gathered rows. With many occurrences of few distinct rows — many
// executions of few contexts — the first layer's work shrinks by the
// repeat factor. rows must stay untouched until BackwardRows.
func (m *MLP) ForwardRows(ws *mat.Workspace, x *mat.Dense, rows []int32, train bool) *mat.Dense {
	m.rows, m.distinct = rows, x.Rows
	hu := m.Layers[0].Forward(ws, x, train)
	h := ws.GetRaw(len(rows), hu.Cols)
	for i, r := range rows {
		copy(h.Row(i), hu.Row(int(r)))
	}
	for _, l := range m.Layers[1:] {
		h = l.Forward(ws, h, train)
	}
	return h
}

// BackwardRows back-propagates a ForwardRows pass. The per-occurrence
// gradient reaching the first layer is scatter-added onto the distinct
// rows before that layer's activation derivative and weight gradient,
// which is exact by linearity (only the summation order differs from
// Backward on the expanded matrix). The input is data, so no input
// gradient is computed.
func (m *MLP) BackwardRows(ws *mat.Workspace, grad *mat.Dense) {
	for i := len(m.Layers) - 1; i > 0; i-- {
		grad = m.Layers[i].Backward(ws, grad)
	}
	gu := ws.Get(m.distinct, grad.Cols)
	for i, r := range m.rows {
		dst := gu.Row(int(r))
		for j, g := range grad.Row(i) {
			dst[j] += g
		}
	}
	m.backwardFirst(ws, gu)
}

// DropCaches forgets what the last pass cached for its backward pass —
// every one of those matrices belongs to the workspace the pass ran on —
// so a network kept between calls holds no reference into a workspace it
// has given back.
func (m *MLP) DropCaches() {
	for _, l := range m.Layers {
		switch l := l.(type) {
		case *Linear:
			l.input = nil
		case *LinearAct:
			l.input, l.cache = nil, nil
		case *ActLayer:
			l.input = nil
		}
	}
	m.rows = nil
}

// Replica returns a network that computes with m's parameter values —
// every Param of the replica shares the Value matrix of its original —
// but owns everything a pass writes: gradients, layer caches and, from
// rng, the dropout masks. One goroutine can therefore run forward and
// backward passes on the replica while another runs them on m, as long
// as nobody updates a Value meanwhile; summing the two gradients is the
// caller's business. Frozen flags are copied as they stand.
func (m *MLP) Replica(rng *rand.Rand) *MLP {
	share := func(p *Param) *Param {
		if p == nil {
			return nil
		}
		return &Param{Name: p.Name, Value: p.Value, Grad: mat.NewDense(p.Grad.Rows, p.Grad.Cols), Frozen: p.Frozen}
	}
	r := &MLP{Layers: make([]Layer, len(m.Layers))}
	for i, l := range m.Layers {
		switch l := l.(type) {
		case *Linear:
			r.Layers[i] = &Linear{In: l.In, Out: l.Out, W: share(l.W), B: share(l.B)}
		case *LinearAct:
			r.Layers[i] = &LinearAct{In: l.In, Out: l.Out, W: share(l.W), B: share(l.B), Act: l.Act}
		case *ActLayer:
			r.Layers[i] = NewActLayer(l.Act)
		case *AlphaDropout:
			r.Layers[i] = NewAlphaDropout(l.P, rng)
		default:
			panic(fmt.Sprintf("nn: no replica of a %T layer", l))
		}
	}
	return r
}

// Params implements Layer, collecting every learnable parameter.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// TwoLayerSpec describes the 2-layer feed-forward networks of paper
// Eq. (2): in → hidden (actHidden) → out (actOut), with optional biases
// and optional alpha-dropout between the layers.
type TwoLayerSpec struct {
	Name      string
	In        int
	Hidden    int
	Out       int
	ActHidden Activation
	ActOut    Activation
	WithBias  bool
	Dropout   float64
	Init      InitScheme
}

// Build constructs the MLP for the spec, drawing initial weights from
// rng. Each linear layer is built fused with its activation
// (LinearAct), so the per-layer epilogues run in single passes; weight
// initialization order — and therefore every drawn weight — is
// identical to the unfused Linear/ActLayer stack.
func (s TwoLayerSpec) Build(rng *rand.Rand) *MLP {
	layers := []Layer{
		NewLinearAct(s.Name+".l1", s.In, s.Hidden, s.WithBias, s.ActHidden, s.Init, rng),
	}
	if s.Dropout > 0 {
		layers = append(layers, NewAlphaDropout(s.Dropout, rng))
	}
	layers = append(layers,
		NewLinearAct(s.Name+".l2", s.Hidden, s.Out, s.WithBias, s.ActOut, s.Init, rng),
	)
	return NewMLP(layers...)
}
