package nn

import "repro/internal/mat"

// InferMLP32 is a snapshot of a network for serving: it runs the
// network's own evaluation-mode forward pass on weights copied at
// snapshot time, so its answers are the trained network's, bit for bit,
// and later training of the source does not reach them.
type InferMLP32 struct {
	net *MLP
}

// QuantizeMLP snapshots m for serving. The network already trains in
// float32, so nothing is rounded: the weights are copied as they are.
// The dropout is left out (the identity at inference). It never fails.
func QuantizeMLP(m *MLP) (*InferMLP32, error) {
	layer := func(l *LinearAct) *LinearAct {
		return &LinearAct{In: l.In, Out: l.Out, Act: l.Act, W: snapshotParam(l.W), B: snapshotParam(l.B)}
	}
	return &InferMLP32{net: &MLP{L1: layer(m.L1), L2: layer(m.L2)}}, nil
}

// snapshotParam copies p's value; the copy has no gradient.
func snapshotParam(p *Param) *Param {
	if p == nil {
		return nil
	}
	return &Param{Name: p.Name, Value: p.Value.Clone(), Frozen: true}
}

// Forward runs the network on a batch. The returned matrix belongs to
// ws and stays valid until the next ws.Reset; in steady state the pass
// allocates nothing.
func (n *InferMLP32) Forward(ws *mat.WorkspaceF32, x *mat.DenseF32) *mat.DenseF32 {
	return n.net.Forward(ws, x, false)
}
