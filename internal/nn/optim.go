package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Adam implements the Adam optimizer with decoupled weight decay (AdamW
// style), matching the paper's "Adam + weight decay" training setup.
// Frozen parameters are skipped entirely: their weights and moments are
// never touched.
//
// An Adam steps one Slab, the one its first step is given, and keeps its
// moments in a block of that slab's layout: per 8 weights, 8 first
// moments then 8 second moments, each parameter's at twice its offset
// from the first float the block covers. The block covers the span of
// the parameters that have been trainable at a step and widens when one
// outside it first is, so a fine-tune that trains only the predictor
// keeps moments for the predictor alone, as a per-parameter state would.
// An update is one mat.AdamSweep32 over each run of consecutive
// trainable parameters of the slab (8 lanes a step under the asm
// family; every run is whole cache lines, so none has a ragged tail).
// The sweep reads each gradient once — the sum of a split step's two
// shard gradients, scaled by the clip factor — updates both moments and
// the weight, and zeroes the gradients it read, so they are zero when
// the next backward pass accumulates. The padding between windows is
// zero in all three blocks and stays zero: a zero gradient on a zero
// weight with zero moments moves nothing.
type Adam struct {
	LearningRate float64
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	t       int
	slab    *Slab
	moments []float32 // those of slab floats [lo, hi)
	lo, hi  int
}

// NewAdam constructs an Adam optimizer with standard betas.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{
		LearningRate: lr,
		Beta1:        0.9,
		Beta2:        0.999,
		Eps:          1e-8,
		WeightDecay:  weightDecay,
	}
}

// StepShards applies one update on the gradient w0·g + w1·g', where g
// is s's gradient block and g' second's, a replica of s (Slab.Replica):
// the reduction of a step's two shards, each holding the gradient of
// the mean loss over its share of the batch and weighted by that share.
// The reduced gradient is first rescaled so its global L2 norm over the
// trainable parameters does not exceed maxNorm (<= 0 disables
// clipping), and every gradient of both slabs — frozen parameters
// included — is left zero. A nil second is a step of one shard (w0
// should be 1). The sum is formed and rounded the same way in every
// family and in a fixed order, so the update is a function of the two
// gradients alone.
func (a *Adam) StepShards(s, second *Slab, w0, w1 float32, maxNorm float64) {
	if a.slab == nil {
		a.slab = s
	} else if a.slab != s {
		panic("nn: an Adam steps the slab it first stepped")
	}
	a.t++
	c := mat.AdamCoef{
		W0: w0, W1: w1,
		B1: float32(a.Beta1), OneMinusB1: float32(1 - a.Beta1),
		B2: float32(a.Beta2), OneMinusB2: float32(1 - a.Beta2),
		BC1: float32(1 - math.Pow(a.Beta1, float64(a.t))),
		BC2: float32(1 - math.Pow(a.Beta2, float64(a.t))),
		Eps: float32(a.Eps), LR: float32(a.LearningRate), WDecay: float32(a.WeightDecay),
	}
	g0, g1 := s.grads, s.grads
	if second != nil {
		if len(second.grads) != len(g0) {
			panic(fmt.Sprintf("nn: StepShards on slabs of %d and %d floats", len(g0), len(second.grads)))
		}
		g1 = second.grads
	}
	c.Scale = clipScale(s, g1, w0, w1, maxNorm)
	for i := 0; i < len(s.params); {
		j := s.run(i)
		lo, hi := s.off[i], s.off[j]
		if s.params[i].Frozen {
			clear(g0[lo:hi])
			clear(g1[lo:hi])
		} else {
			mat.AdamSweep32(s.values[lo:hi], g0[lo:hi], g1[lo:hi], a.momentsOf(lo, hi), &c)
		}
		i = j
	}
}

// momentsOf returns the moments of slab floats [lo, hi), first widening
// the block to cover them: the moments it holds keep their values, the
// new ones start at zero.
func (a *Adam) momentsOf(lo, hi int) []float32 {
	if a.moments == nil {
		a.moments, a.lo, a.hi = alignedFloats(2*(hi-lo)), lo, hi
	} else if lo < a.lo || hi > a.hi {
		wlo, whi := min(lo, a.lo), max(hi, a.hi)
		m := alignedFloats(2 * (whi - wlo))
		copy(m[2*(a.lo-wlo):], a.moments)
		a.moments, a.lo, a.hi = m, wlo, whi
	}
	return a.moments[2*(lo-a.lo) : 2*(hi-a.lo)]
}

// clipScale returns the factor that caps the global L2 norm of s's
// trainable parameters' reduced gradients w0·g + w1·g1 (g s's gradient
// block, g1 one of its layout) at max, or 1 when no rescale is needed
// (or max <= 0). Each reduced element is rounded as mat.AdamSweep32
// rounds it, and the squares are summed in float64 in parameter and
// element order. The sum is one dependent chain, so it skips the
// padding between windows, which would only add +0. Frozen parameters
// are left out: their gradient is never applied, so it must not shrink
// the step of the ones that are — what clip_grad_norm_ does when frozen
// tensors carry no gradient.
func clipScale(s *Slab, g1 []float32, w0, w1 float32, max float64) float32 {
	if max <= 0 {
		return 1
	}
	var sq float64
	for i, p := range s.params {
		if p.Frozen {
			continue
		}
		lo := s.off[i]
		g0 := s.grads[lo : lo+p.NumElements()]
		g1 := g1[lo : lo+len(g0)]
		for k, g := range g0 {
			r := float64(float32(float32(w0*g) + float32(w1*g1[k])))
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
