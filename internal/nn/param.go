// Package nn implements the two-layer feed-forward networks of the
// Bellamy model (paper Eq. (2)): linear layers with SELU-family
// activations, alpha-dropout, the Huber runtime loss and the fused
// reconstruction term, Adam with decoupled weight decay, and cyclical
// learning-rate annealing. It replaces the PyTorch stack used in the paper
// with a pure-Go implementation of the same mathematics, in PyTorch's
// default precision: weights, activations, gradients and optimizer state
// are float32. Losses and the statistics over them are summed in float64.
package nn

import (
	"fmt"
	"unsafe"

	"repro/internal/mat"
)

// Param is a learnable tensor together with its accumulated gradient and a
// freeze flag. Frozen parameters are skipped by optimizers, which is how
// Bellamy's fine-tuning stages keep most of the model fixed.
//
// A trained network's parameters live in a Slab: Value and Grad are then
// windows into the slab's weight and gradient blocks, each starting on a
// 64-byte cache line, so no line holds both a weight and a gradient —
// one goroutine can accumulate gradients while another reads the
// weights without the two fighting over a line.
type Param struct {
	Name   string
	Value  *mat.DenseF32
	Grad   *mat.DenseF32
	Frozen bool
}

// lineFloats is the number of float32s in a 64-byte cache line. Every
// window of a slab starts on a multiple of it, so it is also a multiple
// of the 8 lanes mat.AdamSweep32 steps by.
const lineFloats = 16

// padded rounds n up to whole cache lines of float32s.
func padded(n int) int { return (n + lineFloats - 1) &^ (lineFloats - 1) }

// alignedFloats returns n zeroed float32s whose first element starts a
// 64-byte cache line.
func alignedFloats(n int) []float32 {
	buf := make([]float32, n+lineFloats-1)
	skip := int(-uintptr(unsafe.Pointer(unsafe.SliceData(buf)))&63) / 4
	return buf[skip : skip+n : skip+n]
}

// NewParam allocates a parameter with a zeroed value and gradient, each
// a matrix of its own until NewSlab moves them into a slab. BuildSlab
// makes the parameters of a network in their slab from the start.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name:  name,
		Value: mat.NewDenseF32(rows, cols),
		Grad:  mat.NewDenseF32(rows, cols),
	}
}

// NumElements returns the number of scalar weights in the parameter.
func (p *Param) NumElements() int { return len(p.Value.Data) }

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

// Slab is a list of parameters laid out as a training step walks them:
// all their values in one block and all their gradients in another, in
// list order, each parameter's window starting on a cache line (off[i]
// floats into both blocks) with zeros in the padding between windows.
// Adam keeps its moments in a third block of the same layout, so a run
// of consecutive trainable parameters is one contiguous sweep with no
// ragged tail, and a snapshot of the weights is one copy.
//
// A slab and its replicas (Replica) share the value block and own one
// gradient block each, so the shards of a training step write lines no
// other shard writes and no weight lives on.
type Slab struct {
	params []*Param
	off    []int // params[i] starts off[i] floats into each block; off[len(params)] is their length
	values []float32
	grads  []float32
}

// NewSlab moves params into a slab of their own: their values and
// gradients are copied into the new blocks, and each Param's Value and
// Grad matrix is pointed at its window (the matrices stay, so whoever
// shares them sees the move).
func NewSlab(params ...*Param) *Slab {
	s := &Slab{params: params, off: make([]int, len(params)+1)}
	for i, p := range params {
		s.off[i+1] = s.off[i] + padded(p.NumElements())
	}
	s.values, s.grads = alignedFloats(s.off[len(params)]), alignedFloats(s.off[len(params)])
	for i, p := range params {
		moveTo(p.Value, s.values, s.off[i])
		moveTo(p.Grad, s.grads, s.off[i])
	}
	return s
}

// BuildSlab builds the networks of specs, in order, as Build does —
// the same parameters, weights drawn from rng in the same order — with
// every parameter in one new slab: each gets its windows of the slab's
// blocks before its weights are drawn, so nothing is allocated twice.
// The slab's parameters are the networks' Params, in order.
func BuildSlab(rng *Rand, specs ...TwoLayerSpec) ([]*MLP, *Slab) {
	n := 0
	for _, sp := range specs {
		n += sp.slabFloats()
	}
	s := &Slab{off: []int{0}, values: alignedFloats(n), grads: alignedFloats(n)}
	window := func(name string, rows, cols int) *Param {
		lo := s.off[len(s.params)]
		hi := lo + rows*cols
		p := &Param{
			Name:  name,
			Value: &mat.DenseF32{Rows: rows, Cols: cols, Data: s.values[lo:hi:hi]},
			Grad:  &mat.DenseF32{Rows: rows, Cols: cols, Data: s.grads[lo:hi:hi]},
		}
		s.params, s.off = append(s.params, p), append(s.off, lo+padded(rows*cols))
		return p
	}
	nets := make([]*MLP, len(specs))
	for i, sp := range specs {
		nets[i] = sp.build(window, rng)
	}
	return nets, s
}

// moveTo copies m's elements into block at off and makes that window
// m's storage.
func moveTo(m *mat.DenseF32, block []float32, off int) {
	n := copy(block[off:], m.Data)
	m.Data = block[off : off+n : off+n]
}

// Replica lays out the parameters of a replica of s's network (see
// MLP.Replica), which share s's value matrices param by param: it moves
// their gradients into a block of their own in s's layout and returns
// the slab they form, whose values are s's.
func (s *Slab) Replica(params []*Param) *Slab {
	if len(params) != len(s.params) {
		panic(fmt.Sprintf("nn: a replica of %d parameters for a slab of %d", len(params), len(s.params)))
	}
	r := &Slab{params: params, off: s.off, values: s.values, grads: alignedFloats(len(s.grads))}
	for i, p := range params {
		if p.Value != s.params[i].Value {
			panic(fmt.Sprintf("nn: replica parameter %s does not share its original's value", p.Name))
		}
		moveTo(p.Grad, r.grads, r.off[i])
	}
	return r
}

// Params returns the slab's parameters in layout order. The slice is
// the slab's own: callers must not reorder it.
func (s *Slab) Params() []*Param { return s.params }

// Values returns the value block: every parameter's window, in order,
// with the zero padding between them.
func (s *Slab) Values() []float32 { return s.values }

// ZeroGrads resets every gradient of the slab.
func (s *Slab) ZeroGrads() { clear(s.grads) }

// run returns the end of the run of parameters that starts at params[i]
// and shares its frozen flag: params[i:j] are all frozen or all
// trainable, and their windows cover [off[i], off[j]) of each block.
func (s *Slab) run(i int) (j int) {
	frozen := s.params[i].Frozen
	for j = i + 1; j < len(s.params) && s.params[j].Frozen == frozen; j++ {
	}
	return j
}
