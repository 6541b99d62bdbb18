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

// LinearAct is a fully connected layer with its activation fused in:
// y = act(x*W + b) with W ∈ R^{In x Out}. The bias is optional:
// Bellamy's auto-encoder waives additive biases (paper §IV-A). The
// bias-add and the activation run as one epilogue over the product, in
// place, and the backward pass takes the activation's derivative from
// the cached output (Activation.DerivFromOutput), computing it and the
// bias gradient in one sweep.
type LinearAct struct {
	In, Out int
	W       *Param
	B       *Param // nil when the layer has no bias
	Act     Activation

	input *mat.Dense
	// cache is the activated output Backward takes the derivative from;
	// nil for Identity, whose derivative is constant.
	cache *mat.Dense
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
	// Bias and activation applied in place, one buffer; the output
	// doubles as the derivative cache.
	fusedBiasActInPlace(l.Act, pre, bias)
	l.cache = pre
	return pre
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
		fusedActGradFromOut(l.Act, grad, l.cache, dpre, biasGrad)
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

// ReconLossRows is the reconstruction term of pre-training on a decoder
// whose last layer is a bias-free tanh LinearAct: the mean squared error
// between the decoder's output on codes and the target matrix whose
// i-th row is targets.Row(rows[i]), and its backward pass scaled by
// weight. The layers before the last run forward in training mode and
// backward as usual; the last layer and the loss are one
// mat.ReconHead64 pass, so the decoder's output and its gradient never
// exist as matrices. It accumulates the parameter gradients and returns
// the (unweighted) error and weight times its gradient w.r.t. codes.
func (m *MLP) ReconLossRows(ws *mat.Workspace, codes, targets *mat.Dense, rows []int32, weight float64) (float64, *mat.Dense) {
	last, ok := m.Layers[len(m.Layers)-1].(*LinearAct)
	if _, tanh := last.Act.(Tanh); !ok || !tanh || last.B != nil {
		panic("nn: ReconLossRows needs a decoder ending in a bias-free tanh LinearAct")
	}
	if len(rows) != codes.Rows {
		panic(fmt.Sprintf("nn: ReconLossRows on %d codes with %d target rows", codes.Rows, len(rows)))
	}
	hid := codes
	for _, l := range m.Layers[:len(m.Layers)-1] {
		hid = l.Forward(ws, hid, true)
	}
	if hid.Cols != last.In {
		panic(fmt.Sprintf("nn: LinearAct %s input cols %d != in %d", last.W.Name, hid.Cols, last.In))
	}
	grad := ws.GetRaw(hid.Rows, last.In)
	var loss float64
	if n := float64(len(rows) * last.Out); n > 0 {
		loss = mat.ReconHead64(grad, hid, last.W.Value, last.W.Grad, targets, rows, 2*weight/n) / n
	}
	for i := len(m.Layers) - 2; i >= 0; i-- {
		grad = m.Layers[i].Backward(ws, grad)
	}
	return loss, grad
}

// DropCaches forgets what the last pass cached for its backward pass —
// every one of those matrices belongs to the workspace the pass ran on —
// so a network kept between calls holds no reference into a workspace it
// has given back.
func (m *MLP) DropCaches() {
	for _, l := range m.Layers {
		if l, ok := l.(*LinearAct); ok {
			l.input, l.cache = nil, nil
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
		case *LinearAct:
			r.Layers[i] = &LinearAct{In: l.In, Out: l.Out, W: share(l.W), B: share(l.B), Act: l.Act}
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
// rng: a LinearAct per layer, with an AlphaDropout between them when
// the spec drops units.
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
