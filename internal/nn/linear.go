package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

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

// newLinearAct constructs a fused linear+activation layer with its
// parameters made by newParam, the weights before the bias, and its
// weights drawn from rng.
func newLinearAct(newParam func(name string, rows, cols int) *Param, name string, in, out int, withBias bool, act Activation, scheme InitScheme, rng *rand.Rand) *LinearAct {
	l := &LinearAct{In: in, Out: out, W: newParam(name+".W", in, out), Act: act}
	InitDense(l.W.Value, scheme, rng)
	if withBias {
		l.B = newParam(name+".b", 1, out)
	}
	return l
}

// Forward computes act(x*W + b), caching what Backward needs.
func (l *LinearAct) Forward(ws *mat.WorkspaceF32, x *mat.DenseF32) *mat.DenseF32 {
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

// Backward consumes the gradient w.r.t. the last Forward's output,
// accumulates the parameter gradients and returns the gradient w.r.t.
// its input.
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

// params returns the layer's weights, then its bias if it has one.
func (l *LinearAct) params() []*Param {
	if l.B == nil {
		return []*Param{l.W}
	}
	return []*Param{l.W, l.B}
}

// MLP is the two-layer feed-forward network of paper Eq. (2), the shape
// of all four Bellamy networks (f, g, h and z): a LinearAct, an
// alpha-dropout when the network drops units, and a second LinearAct.
//
// Forward caches whatever the backward passes need. Both passes draw
// their output buffers from the caller's workspace, so a steady-state
// training step allocates nothing. Buffers they return (and the input
// caches they keep) are valid until the workspace is Reset; callers own
// the Reset cadence — typically once per training step, before the
// forward pass. A nil workspace is allowed and falls back to allocating.
type MLP struct {
	L1   *LinearAct
	Drop *AlphaDropout // nil without dropout
	L2   *LinearAct

	// rows and distinct are the occurrence index and the distinct-row
	// count of the last ForwardRows call, kept for BackwardRows; fused
	// says that call ran mat's fused pass (see aeFused).
	rows     []int32
	distinct int
	fused    bool
}

// fuseAE lets an auto-encoder's per-occurrence layers run as mat's
// fused passes where those cover them. Only tests turn it off, to hold
// the fused passes to the layered calls bit for bit.
var fuseAE = true

// aeFused reports whether mat's fused passes cover m as an encoder or a
// decoder: a network that drops units and whose second layer has no
// bias, where the layer the passes compute (the encoder's second, the
// decoder's first) is a bias-free SELU one between mat.AEHidden units
// and mat.AECode codes, on the asm family.
func (m *MLP) aeFused(encoder bool) bool {
	if !fuseAE || m.Drop == nil || m.L2.B != nil {
		return false
	}
	l, hidden, code := m.L1, m.L1.Out, m.L1.In
	if encoder {
		l, hidden, code = m.L2, m.L2.In, m.L2.Out
	}
	_, selu := l.Act.(SELU)
	return selu && l.B == nil && mat.AERowsFused(hidden, code)
}

// Forward runs the network on a batch.
func (m *MLP) Forward(ws *mat.WorkspaceF32, x *mat.DenseF32, train bool) *mat.DenseF32 {
	return m.L2.Forward(ws, m.dropForward(ws, m.L1.Forward(ws, x), train))
}

// Backward back-propagates the output gradient grad through both layers
// and returns the gradient w.r.t. the input.
func (m *MLP) Backward(ws *mat.WorkspaceF32, grad *mat.DenseF32) *mat.DenseF32 {
	return m.L1.Backward(ws, m.dropBackward(ws, m.L2.Backward(ws, grad)))
}

// BackwardParams is Backward for a network whose input is data: the
// first layer accumulates its parameter gradients and computes no
// input gradient.
func (m *MLP) BackwardParams(ws *mat.WorkspaceF32, grad *mat.DenseF32) {
	m.L1.BackwardParams(ws, m.dropBackward(ws, m.L2.Backward(ws, grad)))
}

// dropForward is the dropout's forward pass, the identity without one.
func (m *MLP) dropForward(ws *mat.WorkspaceF32, x *mat.DenseF32, train bool) *mat.DenseF32 {
	if m.Drop == nil {
		return x
	}
	return m.Drop.Forward(ws, x, train)
}

// dropBackward is the dropout's backward pass, the identity without one.
func (m *MLP) dropBackward(ws *mat.WorkspaceF32, grad *mat.DenseF32) *mat.DenseF32 {
	if m.Drop == nil {
		return grad
	}
	return m.Drop.Backward(ws, grad)
}

// ForwardRows is Forward on the matrix whose i-th row is x.Row(rows[i]),
// without building it: the first layer runs once per distinct row of x,
// its output is gathered per occurrence, and the dropout, which makes
// occurrences differ, and the second layer run on the gathered rows.
// With many occurrences of few distinct rows — many executions of few
// contexts — the first layer's work shrinks by the repeat factor. rows
// must stay untouched until BackwardRows.
//
// In training mode, where mat's fused passes cover the network (an
// encoder of mat.AEHidden SELU units and mat.AECode SELU codes with
// dropout between), everything past the first layer is one
// mat.EncodeRows32 pass, with the same result and the same caches.
func (m *MLP) ForwardRows(ws *mat.WorkspaceF32, x *mat.DenseF32, rows []int32, train bool) *mat.DenseF32 {
	m.rows, m.distinct, m.fused = rows, x.Rows, false
	hu := m.L1.Forward(ws, x)
	if l2 := m.L2; train && m.aeFused(true) {
		x2, codes := ws.GetRaw(len(rows), l2.In), ws.GetRaw(len(rows), l2.Out)
		p := m.Drop.draw(len(x2.Data))
		mat.EncodeRows32(codes, x2, m.Drop.slope, hu, rows, l2.W.Value, &p)
		l2.input, l2.cache, m.fused = x2, codes, true
		return codes
	}
	h := ws.GetRaw(len(rows), hu.Cols)
	mat.GatherRowsF32(h, hu, rows)
	return m.L2.Forward(ws, m.dropForward(ws, h, train))
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
		l2 := m.L2
		gu := ws.Get(m.distinct, l2.In)
		mat.EncodeRowsBack32(gu, grad, extra, l2.cache, l2.input, m.Drop.slope, l2.W.Value, l2.W.Grad, m.rows, seluLambda32, seluLambdaAlpha32)
		m.L1.BackwardParams(ws, gu)
		return
	}
	if extra != nil {
		mat.AddInPlaceF32(grad, extra)
	}
	grad = m.dropBackward(ws, m.L2.Backward(ws, grad))
	gu := ws.Get(m.distinct, grad.Cols)
	mat.ScatterAddRowsF32(gu, grad, m.rows)
	m.L1.BackwardParams(ws, gu)
}

// ReconLossRows is the reconstruction term of pre-training on a decoder
// whose second layer is a bias-free tanh one: the mean squared error
// between the decoder's output on codes and the target matrix whose
// i-th row is targets.Row(rows[i]), and its backward pass scaled by
// weight. The first layer and the dropout run forward in training mode
// and backward as usual; the second layer and the loss are one
// mat.ReconHead32 pass (reconHead), so the decoder's output and its
// gradient never exist as matrices. It accumulates the parameter
// gradients and returns the (unweighted) error and weight times its
// gradient w.r.t. codes. Where mat's fused passes cover the decoder
// (mat.AECode codes into mat.AEHidden SELU units, dropout, the head),
// the whole term is one mat.DecodeRows32 pass.
func (m *MLP) ReconLossRows(ws *mat.WorkspaceF32, codes, targets *mat.DenseF32, rows []int32, weight float64) (float64, *mat.DenseF32) {
	l1, last := m.L1, m.L2
	if _, tanh := last.Act.(Tanh); !tanh || last.B != nil {
		panic("nn: ReconLossRows needs a decoder ending in a bias-free tanh LinearAct")
	}
	if len(rows) != codes.Rows {
		panic(fmt.Sprintf("nn: ReconLossRows on %d codes with %d target rows", codes.Rows, len(rows)))
	}
	if n := float64(len(rows) * last.Out); m.aeFused(false) && n > 0 {
		dcodes := ws.GetRaw(codes.Rows, codes.Cols)
		p := m.Drop.draw(len(rows) * l1.Out)
		sum := mat.DecodeRows32(ws, dcodes, codes, l1.W.Value, l1.W.Grad, m.Drop.slope, last.W.Value, last.W.Grad, targets, rows, &p, float32(2*weight/n))
		return sum / n, dcodes
	}
	hid := m.dropForward(ws, l1.Forward(ws, codes), true)
	loss, grad := last.reconHead(ws, hid, targets, rows, weight)
	return loss, l1.Backward(ws, m.dropBackward(ws, grad))
}

// reconHead is the last layer of ReconLossRows's decoder and its loss,
// as one mat.ReconHead32 pass on the layer's input hid: it accumulates
// the weight gradient and returns the (unweighted) error and weight
// times its gradient w.r.t. hid. l is a bias-free tanh layer.
func (l *LinearAct) reconHead(ws *mat.WorkspaceF32, hid, targets *mat.DenseF32, rows []int32, weight float64) (float64, *mat.DenseF32) {
	if hid.Cols != l.In {
		panic(fmt.Sprintf("nn: LinearAct %s input cols %d != in %d", l.W.Name, hid.Cols, l.In))
	}
	grad := ws.GetRaw(hid.Rows, l.In)
	var loss float64
	if n := float64(len(rows) * l.Out); n > 0 {
		loss = mat.ReconHead32(grad, hid, l.W.Value, l.W.Grad, targets, rows, float32(2*weight/n)) / n
	}
	return loss, grad
}

// DropCaches forgets what the last pass cached for its backward pass —
// every one of those matrices belongs to the workspace the pass ran on —
// so a network kept between calls holds no reference into a workspace it
// has given back.
func (m *MLP) DropCaches() {
	m.L1.input, m.L1.cache = nil, nil
	m.L2.input, m.L2.cache = nil, nil
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
	layer := func(l *LinearAct) *LinearAct {
		return &LinearAct{In: l.In, Out: l.Out, W: share(l.W), B: share(l.B), Act: l.Act}
	}
	r := &MLP{L1: layer(m.L1), L2: layer(m.L2)}
	if m.Drop != nil {
		r.Drop = NewAlphaDropout(m.Drop.P, rng)
	}
	return r
}

// Params returns every learnable parameter: the first layer's weights
// and bias, then the second's.
func (m *MLP) Params() []*Param {
	return append(m.L1.params(), m.L2.params()...)
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
	m := &MLP{L1: newLinearAct(newParam, s.Name+".l1", s.In, s.Hidden, s.WithBias, s.ActHidden, s.Init, rng.Rand)}
	if s.Dropout > 0 {
		m.Drop = NewAlphaDropout(s.Dropout, rng)
	}
	m.L2 = newLinearAct(newParam, s.Name+".l2", s.Hidden, s.Out, s.WithBias, s.ActOut, s.Init, rng.Rand)
	return m
}

// slabFloats is the length of the slab blocks of the spec's parameters.
func (s TwoLayerSpec) slabFloats() int {
	n := padded(s.In*s.Hidden) + padded(s.Hidden*s.Out)
	if s.WithBias {
		n += padded(s.Hidden) + padded(s.Out)
	}
	return n
}
