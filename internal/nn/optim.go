package nn

import (
	"math"

	"repro/internal/mat"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched (call
	// ZeroGrads afterwards).
	Step(params []*Param)
	// SetLR changes the learning rate (used by schedulers).
	SetLR(lr float64)
	// LR reports the current learning rate.
	LR() float64
}

// FusedStepper is an Optimizer whose update can fold gradient
// clipping, the parameter update, and gradient zeroing into a single
// sweep per parameter. Relative to the unfused
// ZeroGrads/GradClip/Step sequence it eliminates three full memory
// passes over the gradients per training step: the upfront zeroing
// pass (gradients are re-zeroed as they are consumed), the clip
// rescale pass (the clip factor is applied to each gradient as it is
// read), and one of the two moment-buffer streams (first and second
// moments are interleaved in one buffer). Callers must ensure
// gradients are zero before the next backward pass accumulates — which
// StepClipZero itself guarantees for every following step.
type FusedStepper interface {
	Optimizer
	// StepClipZero rescales gradients so the global L2 norm over the
	// trainable parameters does not exceed maxNorm (<= 0 disables
	// clipping), applies one update, and leaves every gradient — frozen
	// parameters included — zeroed.
	StepClipZero(params []*Param, maxNorm float64)
}

// Adam implements the Adam optimizer with decoupled weight decay (AdamW
// style), matching the paper's "Adam + weight decay" training setup.
// Frozen parameters are skipped entirely, including their moment state.
// The first and second moment estimates of each parameter live
// interleaved in a single buffer ([m0 v0 m1 v1 ...]): one map lookup
// and one sequential stream per parameter instead of two.
type Adam struct {
	LearningRate float64
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	t     int
	state map[*Param][]float64
}

// NewAdam constructs an Adam optimizer with standard betas.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{
		LearningRate: lr,
		Beta1:        0.9,
		Beta2:        0.999,
		Eps:          1e-8,
		WeightDecay:  weightDecay,
		state:        make(map[*Param][]float64),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	a.step(params, 1, false)
}

// StepClipZero implements FusedStepper.
func (a *Adam) StepClipZero(params []*Param, maxNorm float64) {
	scale := gradClipScale(params, maxNorm)
	a.t++
	a.step(params, scale, true)
}

// step is the single-sweep update: per parameter it reads each
// gradient once (pre-scaled by the clip factor), updates both moments
// in the interleaved state buffer, applies the bias-corrected update
// with decoupled weight decay, and optionally zeroes the gradient in
// the same pass.
func (a *Adam) step(params []*Param, gscale float64, zeroGrads bool) {
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	b1, b2 := a.Beta1, a.Beta2
	lr, wd, eps := a.LearningRate, a.WeightDecay, a.Eps
	for _, p := range params {
		if p.Frozen {
			if zeroGrads {
				p.Grad.Zero()
			}
			continue
		}
		gd := p.Grad.Data
		st, ok := a.state[p]
		if !ok {
			st = make([]float64, 2*len(gd))
			a.state[p] = st
		}
		st = st[: 2*len(gd) : 2*len(gd)]
		vd := p.Value.Data
		for i, g := range gd {
			g *= gscale
			m := b1*st[2*i] + (1-b1)*g
			v := b2*st[2*i+1] + (1-b2)*g*g
			st[2*i] = m
			st[2*i+1] = v
			upd := (m / bc1) / (math.Sqrt(v/bc2) + eps)
			// Decoupled weight decay.
			vd[i] -= lr * (upd + wd*vd[i])
			if zeroGrads {
				gd[i] = 0
			}
		}
	}
}

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.LearningRate = lr }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.LearningRate }

// ResetState clears the moment estimates, e.g. after re-initializing
// model components for the reset reuse strategies.
func (a *Adam) ResetState() {
	a.t = 0
	a.state = make(map[*Param][]float64)
}

// SGD is plain stochastic gradient descent with optional momentum, kept
// for ablation experiments.
type SGD struct {
	LearningRate float64
	Momentum     float64
	WeightDecay  float64

	vel map[*Param]*mat.Dense
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LearningRate: lr, Momentum: momentum, WeightDecay: weightDecay, vel: make(map[*Param]*mat.Dense)}
}

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.Frozen {
			continue
		}
		vel, ok := s.vel[p]
		if !ok {
			vel = mat.NewDense(p.Value.Rows, p.Value.Cols)
			s.vel[p] = vel
		}
		for i, g := range p.Grad.Data {
			g += s.WeightDecay * p.Value.Data[i]
			vel.Data[i] = s.Momentum*vel.Data[i] + g
			p.Value.Data[i] -= s.LearningRate * vel.Data[i]
		}
	}
}

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.LearningRate = lr }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.LearningRate }

// GradClip rescales gradients so the global L2 norm of the trainable
// parameters does not exceed max. It guards fine-tuning on tiny sample
// counts against exploding steps. Fused optimizers fold the rescale into
// their update sweep instead (see FusedStepper); GradClip remains for
// unfused optimizers.
func GradClip(params []*Param, max float64) {
	scale := gradClipScale(params, max)
	if scale == 1 {
		return
	}
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= scale
		}
	}
}

// gradClipScale returns the factor that caps the global gradient L2
// norm at max, or 1 when no rescale is needed. The norm is taken over
// the trainable parameters only: a frozen parameter's gradient is never
// applied, so it must not shrink the step of the ones that are — what
// clip_grad_norm_ does when frozen tensors carry no gradient.
func gradClipScale(params []*Param, max float64) float64 {
	if max <= 0 {
		return 1
	}
	var sq float64
	for _, p := range params {
		if p.Frozen {
			continue
		}
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= max {
		return 1
	}
	return max / norm
}
