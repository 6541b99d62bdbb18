package nn

import (
	"fmt"

	"repro/internal/mat"
)

// Float32 inference network. Training keeps the float64 MLP; when a
// model is published for serving, QuantizeMLP snapshots the trained
// weights into an InferMLP32 — a flat, forward-only network with
// float32 weights, float32 activations (act32.go), and none of the
// backward-pass machinery (no gradients, no caches, no dropout).
// Quantization rounds each weight to the nearest float32 (~6e-8
// relative), which bounds prediction drift far below the model's own
// validation error; the end-to-end bound is pinned in core.

// InferLayer32 is one fused linear+activation inference layer.
type InferLayer32 struct {
	In, Out int
	W       *mat.DenseF32 // In x Out
	Bias    []float32     // nil when the layer has no bias
	Act     Activation    // Identity when the layer is purely linear
}

// InferMLP32 is a float32 feed-forward network.
type InferMLP32 struct {
	Layers []InferLayer32
}

// QuantizeMLP converts a trained float64 MLP into its float32 serving
// form. AlphaDropout layers are dropped (identity at inference). Layer
// types without an inference mapping are an error rather than a silent
// misprediction.
func QuantizeMLP(m *MLP) (*InferMLP32, error) {
	net := &InferMLP32{Layers: make([]InferLayer32, 0, len(m.Layers))}
	for _, layer := range m.Layers {
		switch l := layer.(type) {
		case *LinearAct:
			net.Layers = append(net.Layers, quantizeLinear(l))
		case *AlphaDropout:
			// Identity at inference time.
		default:
			return nil, fmt.Errorf("nn: QuantizeMLP: no float32 inference mapping for layer type %T", layer)
		}
	}
	return net, nil
}

func quantizeLinear(l *LinearAct) InferLayer32 {
	il := InferLayer32{In: l.In, Out: l.Out, W: mat.QuantizeDense(l.W.Value), Act: l.Act}
	if l.B != nil {
		src := l.B.Value.Row(0)
		il.Bias = make([]float32, len(src))
		for i, v := range src {
			il.Bias[i] = float32(v)
		}
	}
	return il
}

// Forward runs the network on a batch. The returned matrix belongs to
// ws and stays valid until the next ws.Reset; in steady state the pass
// allocates nothing.
func (n *InferMLP32) Forward(ws *mat.WorkspaceF32, x *mat.DenseF32) *mat.DenseF32 {
	for i := range n.Layers {
		l := &n.Layers[i]
		if x.Cols != l.In {
			panic(fmt.Sprintf("nn: InferMLP32 layer %d input cols %d != in %d", i, x.Cols, l.In))
		}
		y := ws.GetRaw(x.Rows, l.Out)
		mat.MulToF32(y, x, l.W)
		biasAct32(l.Act, y, l.Bias)
		x = y
	}
	return x
}

// biasAct32 applies bias then activation in place, devirtualized per
// activation like the float64 fused epilogues: one type switch per
// matrix, tight monomorphic loops inside.
func biasAct32(act Activation, m *mat.DenseF32, bias []float32) {
	data := m.Data
	cols := m.Cols
	switch act.(type) {
	case Identity:
		if bias == nil {
			return
		}
		for r := 0; r < len(data); r += cols {
			row := data[r : r+cols : r+cols]
			for j, bj := range bias {
				row[j] += bj
			}
		}
	case SELU:
		if bias != nil {
			for r := 0; r < len(data); r += cols {
				row := data[r : r+cols : r+cols]
				for j, bj := range bias {
					row[j] += bj
				}
			}
		}
		// Vectorized SELU when the asm kernel family is active; the
		// scalar loop is the portable fallback.
		if mat.Selu32(data, seluLambda32, seluLambdaAlpha32) {
			return
		}
		for i, v := range data {
			data[i] = selu32(v)
		}
	case Tanh:
		if bias == nil {
			for i, v := range data {
				data[i] = tanh32(v)
			}
			return
		}
		for r := 0; r < len(data); r += cols {
			row := data[r : r+cols : r+cols]
			for j, bj := range bias {
				row[j] = tanh32(row[j] + bj)
			}
		}
	case ReLU:
		if bias == nil {
			for i, v := range data {
				if v < 0 {
					data[i] = 0
				}
			}
			return
		}
		for r := 0; r < len(data); r += cols {
			row := data[r : r+cols : r+cols]
			for j, bj := range bias {
				v := row[j] + bj
				if v < 0 {
					v = 0
				}
				row[j] = v
			}
		}
	default:
		panic("nn: no float32 epilogue for activation " + act.Name())
	}
}
