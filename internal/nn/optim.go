package nn

import (
	"math"

	"repro/internal/mat"
)

// Adam implements the Adam optimizer with decoupled weight decay (AdamW
// style), matching the paper's "Adam + weight decay" training setup.
// Frozen parameters are skipped entirely, including their moment state.
// An update is one sweep per parameter (mat.AdamSweep32: 8 lanes a step
// under the asm family) that reads each gradient once — the sum of a
// split step's two shard gradients, scaled by the clip factor — updates
// both moments and the weight, and zeroes the gradients it read, so they
// are zero when the next backward pass accumulates.
type Adam struct {
	LearningRate float64
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	t     int
	state map[*Param][]float32
}

// NewAdam constructs an Adam optimizer with standard betas.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{
		LearningRate: lr,
		Beta1:        0.9,
		Beta2:        0.999,
		Eps:          1e-8,
		WeightDecay:  weightDecay,
		state:        make(map[*Param][]float32),
	}
}

// Step is one unclipped update, after which every gradient of params is
// zero.
func (a *Adam) Step(params []*Param) { a.StepShards(params, nil, 1, 0, 0) }

// StepClipZero rescales gradients so the global L2 norm over the
// trainable parameters does not exceed maxNorm (<= 0 disables
// clipping), applies one update, and leaves every gradient — frozen
// parameters included — zeroed.
func (a *Adam) StepClipZero(params []*Param, maxNorm float64) {
	a.StepShards(params, nil, 1, 0, maxNorm)
}

// StepShards is StepClipZero on the gradient w0·g + w1·g', where g is
// the gradient of params[k] and g' that of second[k]: the reduction of
// a step's two shards, each holding the gradient of the mean loss over
// its share of the batch and weighted by that share. The clip norm is
// the reduced gradient's, and both gradients are left zero. A nil
// second is a step of one shard (w0 should be 1). The sum is formed and
// rounded the same way in every family and in a fixed order, so the
// update is a function of the two gradients alone.
func (a *Adam) StepShards(params, second []*Param, w0, w1 float32, maxNorm float64) {
	a.t++
	c := mat.AdamCoef{
		W0: w0, W1: w1,
		B1: float32(a.Beta1), OneMinusB1: float32(1 - a.Beta1),
		B2: float32(a.Beta2), OneMinusB2: float32(1 - a.Beta2),
		BC1: float32(1 - math.Pow(a.Beta1, float64(a.t))),
		BC2: float32(1 - math.Pow(a.Beta2, float64(a.t))),
		Eps: float32(a.Eps), LR: float32(a.LearningRate), WDecay: float32(a.WeightDecay),
	}
	c.Scale = clipScale(params, second, w0, w1, maxNorm)
	for k, p := range params {
		g0 := p.Grad.Data
		g1 := g0
		if second != nil {
			g1 = second[k].Grad.Data[:len(g0)]
		}
		if p.Frozen {
			clear(g0)
			clear(g1)
			continue
		}
		st, ok := a.state[p]
		if !ok {
			st = make([]float32, mat.AdamStateLen(len(g0)))
			a.state[p] = st
		}
		mat.AdamSweep32(p.Value.Data, g0, g1, st, &c)
	}
}

// clipScale returns the factor that caps the global L2 norm of the
// trainable parameters' reduced gradients w0·g + w1·g' at max, or 1 when
// no rescale is needed (or max <= 0). Each reduced element is rounded as
// mat.AdamSweep32 rounds it, and the squares are summed in float64 in
// parameter and element order. Frozen parameters are left out: their
// gradient is never applied, so it must not shrink the step of the ones
// that are — what clip_grad_norm_ does when frozen tensors carry no
// gradient.
func clipScale(params, second []*Param, w0, w1 float32, max float64) float32 {
	if max <= 0 {
		return 1
	}
	var sq float64
	for k, p := range params {
		if p.Frozen {
			continue
		}
		g0 := p.Grad.Data
		if second == nil {
			for _, g := range g0 {
				r := float64(float32(float32(w0*g) + float32(w1*g)))
				sq += r * r
			}
			continue
		}
		g1 := second[k].Grad.Data[:len(g0)]
		for i, g := range g0 {
			r := float64(float32(float32(w0*g) + float32(w1*g1[i])))
			sq += r * r
		}
	}
	norm := math.Sqrt(sq)
	if norm <= max {
		return 1
	}
	return float32(max / norm)
}

// SetLR changes the learning rate, as fine-tuning's cyclical schedule
// does every epoch.
func (a *Adam) SetLR(lr float64) { a.LearningRate = lr }

// LR reports the current learning rate.
func (a *Adam) LR() float64 { return a.LearningRate }
