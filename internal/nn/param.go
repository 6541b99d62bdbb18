// Package nn implements the feed-forward neural network substrate used by
// the Bellamy model: linear layers, SELU-family activations, alpha-dropout,
// Huber/MSE losses, Adam with decoupled weight decay, and cyclical
// learning-rate annealing. It replaces the PyTorch stack used in the paper
// with a pure-Go implementation of the same mathematics.
package nn

import (
	"fmt"

	"repro/internal/mat"
)

// Param is a learnable tensor together with its accumulated gradient and a
// freeze flag. Frozen parameters are skipped by optimizers, which is how
// Bellamy's fine-tuning stages keep most of the model fixed.
type Param struct {
	Name   string
	Value  *mat.Dense
	Grad   *mat.Dense
	Frozen bool
}

// NewParam allocates a parameter with a zeroed value and gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name:  name,
		Value: mat.NewDense(rows, cols),
		Grad:  mat.NewDense(rows, cols),
	}
}

// ZeroGrad resets the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// AccumulateGrad adds g to the parameter's gradient.
func (p *Param) AccumulateGrad(g *mat.Dense) {
	if g.Rows != p.Value.Rows || g.Cols != p.Value.Cols {
		panic(fmt.Sprintf("nn: grad shape %dx%d != param %q shape %dx%d",
			g.Rows, g.Cols, p.Name, p.Value.Rows, p.Value.Cols))
	}
	mat.AddInPlace(p.Grad, g)
}

// NumElements returns the number of scalar weights in the parameter.
func (p *Param) NumElements() int { return len(p.Value.Data) }

// ZeroGrads resets the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ReduceGrads folds the gradients of a replica's parameters into the
// originals': dst[k].Grad = wDst*dst[k].Grad + wSrc*src[k].Grad, and
// src[k].Grad is left zero for the replica's next backward pass to
// accumulate into. With each side holding the gradient of the mean loss
// over its share of a batch and the weights those shares, the result is
// the gradient over the whole batch.
func ReduceGrads(dst, src []*Param, wDst, wSrc float64) {
	for k, p := range dst {
		d, s := p.Grad.Data, src[k].Grad.Data
		s = s[:len(d)]
		for i := range d {
			d[i] = wDst*d[i] + wSrc*s[i]
			s[i] = 0
		}
	}
}

// Freeze sets the frozen flag on all params.
func Freeze(params []*Param, frozen bool) {
	for _, p := range params {
		p.Frozen = frozen
	}
}

// AnyTrainable reports whether at least one of params is not frozen,
// i.e. whether a gradient flowing into them is ever applied.
func AnyTrainable(params []*Param) bool {
	for _, p := range params {
		if !p.Frozen {
			return true
		}
	}
	return false
}

// CountParams returns the total number of scalar weights across params.
func CountParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.NumElements()
	}
	return n
}
