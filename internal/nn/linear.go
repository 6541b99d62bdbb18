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
	Forward(ws *mat.WorkspaceF32, x *mat.DenseF32, train bool) *mat.DenseF32
	Backward(ws *mat.WorkspaceF32, grad *mat.DenseF32) *mat.DenseF32
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

	input *mat.DenseF32
	// cache is the activated output Backward takes the derivative from;
	// nil for Identity, whose derivative is constant.
	cache *mat.DenseF32
}

// NewLinearAct constructs a fused linear+activation layer.
func NewLinearAct(name string, in, out int, withBias bool, act Activation, scheme InitScheme, rng *rand.Rand) *LinearAct {
	return newLinearAct(NewParam, name, in, out, withBias, act, scheme, rng)
}

// newLinearAct is NewLinearAct with its parameters made by newParam,
// the weights before the bias.
func newLinearAct(newParam func(name string, rows, cols int) *Param, name string, in, out int, withBias bool, act Activation, scheme InitScheme, rng *rand.Rand) *LinearAct {
	l := &LinearAct{In: in, Out: out, W: newParam(name+".W", in, out), Act: act}
	InitDense(l.W.Value, scheme, rng)
	if withBias {
		l.B = newParam(name+".b", 1, out)
	}
	return l
}

// Forward implements Layer.
func (l *LinearAct) Forward(ws *mat.WorkspaceF32, x *mat.DenseF32, train bool) *mat.DenseF32 {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: LinearAct %s input cols %d != in %d", l.W.Name, x.Cols, l.In))
	}
	l.input = x
	pre := ws.GetRaw(x.Rows, l.Out)
	mat.MulToF32(pre, x, l.W.Value)
	var bias []float32
	if l.B != nil {
		bias = l.B.Value.Row(0)
	}
	// Bias and activation applied in place, one buffer; the output
	// doubles as the derivative cache, which Identity, whose derivative
	// is constant, does not need.
	biasActInPlace(l.Act, pre, bias)
	l.cache = pre
	if _, id := l.Act.(Identity); id {
		l.cache = nil
	}
	return pre
}

// Backward implements Layer.
func (l *LinearAct) Backward(ws *mat.WorkspaceF32, grad *mat.DenseF32) *mat.DenseF32 {
	dpre := l.backwardParams(ws, grad)
	// dx = dpre * Wᵀ
	dx := ws.GetRaw(grad.Rows, l.In)
	mat.MulABTToF32(dx, dpre, l.W.Value)
	return dx
}

// BackwardParams is Backward without the input gradient, for a layer
// whose input is data: nobody consumes dx, and its GEMM is a third of
// the layer's backward cost.
func (l *LinearAct) BackwardParams(ws *mat.WorkspaceF32, grad *mat.DenseF32) {
	l.backwardParams(ws, grad)
}

// backwardParams accumulates the weight and bias gradients and returns
// the pre-activation gradient the input gradient is computed from.
func (l *LinearAct) backwardParams(ws *mat.WorkspaceF32, grad *mat.DenseF32) *mat.DenseF32 {
	if l.input == nil {
		panic("nn: LinearAct.Backward before Forward")
	}
	if grad.Cols != l.Out {
		panic(fmt.Sprintf("nn: LinearAct %s grad cols %d != out %d", l.W.Name, grad.Cols, l.Out))
	}
	dpre := grad
	if _, id := l.Act.(Identity); !id {
		var biasGrad []float32
		if l.B != nil {
			biasGrad = l.B.Grad.Row(0)
		}
		dpre = ws.GetRaw(grad.Rows, l.Out)
		actGradFromOut(l.Act, grad, l.cache, dpre, biasGrad)
	} else if l.B != nil {
		mat.ColSumsAccF32(l.B.Grad.Row(0), grad)
	}
	// dW += xᵀ * dpre, straight into the parameter gradient.
	mat.MulATBAccF32(l.W.Grad, l.input, dpre)
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
	// count of the last ForwardRows call, kept for BackwardRows; fused
	// says that call ran mat's fused pass (see aeLayers).
	rows     []int32
	distinct int
	fused    bool
}

// fuseAE lets an auto-encoder's per-occurrence layers run as mat's
// fused passes where those cover them. Only tests turn it off, to hold
// the fused passes to the layered calls bit for bit.
var fuseAE = true

// aeLayers returns the three layers of an encoder or a decoder and
// whether mat's fused passes cover them: a layer, an alpha-dropout that
// drops units and a bias-free layer, where the layer the passes compute
// (the encoder's second, the decoder's first) is a bias-free SELU one
// between mat.AEHidden units and mat.AECode codes, on the asm family.
func (m *MLP) aeLayers(encoder bool) (l1 *LinearAct, d *AlphaDropout, l2 *LinearAct, ok bool) {
	if !fuseAE || len(m.Layers) != 3 {
		return nil, nil, nil, false
	}
	l1, ok1 := m.Layers[0].(*LinearAct)
	d, okd := m.Layers[1].(*AlphaDropout)
	l2, ok2 := m.Layers[2].(*LinearAct)
	if !ok1 || !okd || !ok2 || d.P <= 0 || l2.B != nil {
		return nil, nil, nil, false
	}
	l, hidden, code := l1, l1.Out, l1.In
	if encoder {
		l, hidden, code = l2, l2.In, l2.Out
	}
	_, selu := l.Act.(SELU)
	return l1, d, l2, selu && l.B == nil && mat.AERowsFused(hidden, code)
}

// NewMLP wraps layers into a network.
func NewMLP(layers ...Layer) *MLP { return &MLP{Layers: layers} }

// Forward implements Layer by chaining all constituent layers.
func (m *MLP) Forward(ws *mat.WorkspaceF32, x *mat.DenseF32, train bool) *mat.DenseF32 {
	for _, l := range m.Layers {
		x = l.Forward(ws, x, train)
	}
	return x
}

// Backward implements Layer by back-propagating through all layers.
func (m *MLP) Backward(ws *mat.WorkspaceF32, grad *mat.DenseF32) *mat.DenseF32 {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(ws, grad)
	}
	return grad
}

// paramsBackwarder is a layer that can skip its input gradient.
type paramsBackwarder interface {
	BackwardParams(ws *mat.WorkspaceF32, grad *mat.DenseF32)
}

// BackwardParams is Backward for a network whose input is data: the
// first layer accumulates its parameter gradients and computes no
// input gradient.
func (m *MLP) BackwardParams(ws *mat.WorkspaceF32, grad *mat.DenseF32) {
	for i := len(m.Layers) - 1; i > 0; i-- {
		grad = m.Layers[i].Backward(ws, grad)
	}
	m.backwardFirst(ws, grad)
}

// backwardFirst runs the first layer's backward pass without the input
// gradient where the layer can skip it.
func (m *MLP) backwardFirst(ws *mat.WorkspaceF32, grad *mat.DenseF32) {
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
//
// In training mode, where mat's fused passes cover the network (an
// encoder of mat.AEHidden SELU units and mat.AECode SELU codes with
// dropout between), everything past the first layer is one
// mat.EncodeRows32 pass, with the same result and the same caches.
func (m *MLP) ForwardRows(ws *mat.WorkspaceF32, x *mat.DenseF32, rows []int32, train bool) *mat.DenseF32 {
	m.rows, m.distinct, m.fused = rows, x.Rows, false
	hu := m.Layers[0].Forward(ws, x, train)
	if _, d, l2, ok := m.aeLayers(true); ok && train {
		x2, codes := ws.GetRaw(len(rows), l2.In), ws.GetRaw(len(rows), l2.Out)
		p := d.draw(len(x2.Data))
		mat.EncodeRows32(codes, x2, d.slope, hu, rows, l2.W.Value, &p)
		l2.input, l2.cache, m.fused = x2, codes, true
		return codes
	}
	h := ws.GetRaw(len(rows), hu.Cols)
	mat.GatherRowsF32(h, hu, rows)
	for _, l := range m.Layers[1:] {
		h = l.Forward(ws, h, train)
	}
	return h
}

// BackwardRows back-propagates a ForwardRows pass from the output
// gradient grad plus extra, when extra is not nil (the reconstruction
// term's share); grad may be overwritten. The per-occurrence gradient
// reaching the first layer is scatter-added onto the distinct rows
// before that layer's activation derivative and weight gradient, which
// is exact by linearity (only the summation order differs from Backward
// on the expanded matrix). The input is data, so no input gradient is
// computed. After a fused ForwardRows, everything up to the scatter is
// one mat.EncodeRowsBack32 pass.
func (m *MLP) BackwardRows(ws *mat.WorkspaceF32, grad, extra *mat.DenseF32) {
	if m.fused {
		d, l2 := m.Layers[1].(*AlphaDropout), m.Layers[2].(*LinearAct)
		gu := ws.Get(m.distinct, l2.In)
		mat.EncodeRowsBack32(gu, grad, extra, l2.cache, l2.input, d.slope, l2.W.Value, l2.W.Grad, m.rows, seluLambda32, seluLambdaAlpha32)
		m.backwardFirst(ws, gu)
		return
	}
	if extra != nil {
		mat.AddInPlaceF32(grad, extra)
	}
	for i := len(m.Layers) - 1; i > 0; i-- {
		grad = m.Layers[i].Backward(ws, grad)
	}
	gu := ws.Get(m.distinct, grad.Cols)
	mat.ScatterAddRowsF32(gu, grad, m.rows)
	m.backwardFirst(ws, gu)
}

// ReconLossRows is the reconstruction term of pre-training on a decoder
// whose last layer is a bias-free tanh LinearAct: the mean squared error
// between the decoder's output on codes and the target matrix whose
// i-th row is targets.Row(rows[i]), and its backward pass scaled by
// weight. The layers before the last run forward in training mode and
// backward as usual; the last layer and the loss are one
// mat.ReconHead32 pass, so the decoder's output and its gradient never
// exist as matrices. It accumulates the parameter gradients and returns
// the (unweighted) error and weight times its gradient w.r.t. codes.
// Where mat's fused passes cover the decoder (mat.AECode codes into
// mat.AEHidden SELU units, dropout, the head), the whole term is one
// mat.DecodeRows32 pass.
func (m *MLP) ReconLossRows(ws *mat.WorkspaceF32, codes, targets *mat.DenseF32, rows []int32, weight float64) (float64, *mat.DenseF32) {
	last, ok := m.Layers[len(m.Layers)-1].(*LinearAct)
	if _, tanh := last.Act.(Tanh); !ok || !tanh || last.B != nil {
		panic("nn: ReconLossRows needs a decoder ending in a bias-free tanh LinearAct")
	}
	if len(rows) != codes.Rows {
		panic(fmt.Sprintf("nn: ReconLossRows on %d codes with %d target rows", codes.Rows, len(rows)))
	}
	n := float64(len(rows) * last.Out)
	if l1, d, _, ok := m.aeLayers(false); ok && n > 0 {
		dcodes := ws.GetRaw(codes.Rows, codes.Cols)
		p := d.draw(len(rows) * l1.Out)
		sum := mat.DecodeRows32(ws, dcodes, codes, l1.W.Value, l1.W.Grad, d.slope, last.W.Value, last.W.Grad, targets, rows, &p, float32(2*weight/n))
		return sum / n, dcodes
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
	if n > 0 {
		loss = mat.ReconHead32(grad, hid, last.W.Value, last.W.Grad, targets, rows, float32(2*weight/n)) / n
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
	m.rows, m.fused = nil, false
}

// Replica returns a network that computes with m's parameter values —
// every Param of the replica shares the Value matrix of its original —
// but owns everything a pass writes: gradients, layer caches and, from
// rng, the dropout masks. One goroutine can therefore run forward and
// backward passes on the replica while another runs them on m, as long
// as nobody updates a Value meanwhile; summing the two gradients is the
// caller's business. The replica's gradients are new matrices;
// Slab.Replica moves those of a slab's replica into a block of their own
// in the slab's layout. Frozen flags are copied as they stand.
func (m *MLP) Replica(rng *Rand) *MLP {
	share := func(p *Param) *Param {
		if p == nil {
			return nil
		}
		return &Param{Name: p.Name, Value: p.Value, Grad: mat.NewDenseF32(p.Grad.Rows, p.Grad.Cols), Frozen: p.Frozen}
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
// the spec drops units, whose masks rng draws too.
func (s TwoLayerSpec) Build(rng *rand.Rand) *MLP { return s.build(NewParam, &Rand{Rand: rng}) }

// build is Build with the parameters made by newParam, in the order of
// the MLP's Params.
func (s TwoLayerSpec) build(newParam func(name string, rows, cols int) *Param, rng *Rand) *MLP {
	layers := []Layer{
		newLinearAct(newParam, s.Name+".l1", s.In, s.Hidden, s.WithBias, s.ActHidden, s.Init, rng.Rand),
	}
	if s.Dropout > 0 {
		layers = append(layers, NewAlphaDropout(s.Dropout, rng))
	}
	layers = append(layers,
		newLinearAct(newParam, s.Name+".l2", s.Hidden, s.Out, s.WithBias, s.ActOut, s.Init, rng.Rand),
	)
	return NewMLP(layers...)
}

// slabFloats is the length of the slab blocks of the spec's parameters.
func (s TwoLayerSpec) slabFloats() int {
	n := padded(s.In*s.Hidden) + padded(s.Hidden*s.Out)
	if s.WithBias {
		n += padded(s.Hidden) + padded(s.Out)
	}
	return n
}
