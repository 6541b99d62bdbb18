// Package nn implements the feed-forward neural network substrate used by
// the Bellamy model: linear layers, SELU-family activations, alpha-dropout,
// Huber/MSE losses, Adam with decoupled weight decay, and cyclical
// learning-rate annealing. It replaces the PyTorch stack used in the paper
// with a pure-Go implementation of the same mathematics, in PyTorch's
// default precision: weights, activations, gradients and optimizer state
// are float32. Losses and the statistics over them are summed in float64.
package nn

import "repro/internal/mat"

// Param is a learnable tensor together with its accumulated gradient and a
// freeze flag. Frozen parameters are skipped by optimizers, which is how
// Bellamy's fine-tuning stages keep most of the model fixed.
type Param struct {
	Name   string
	Value  *mat.DenseF32
	Grad   *mat.DenseF32
	Frozen bool
}

// NewParam allocates a parameter with a zeroed value and gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name:  name,
		Value: mat.NewDenseF32(rows, cols),
		Grad:  mat.NewDenseF32(rows, cols),
	}
}

// ZeroGrad resets the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumElements returns the number of scalar weights in the parameter.
func (p *Param) NumElements() int { return len(p.Value.Data) }

// ZeroGrads resets the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
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
