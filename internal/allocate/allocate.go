// Package allocate is the resource-allocation engine on top of the
// Bellamy prediction stack: given a job's descriptive properties, a
// candidate scale-out range, a runtime SLO (deadline) and a per-node-hour
// cost model, it sweeps every candidate in one batched forward pass,
// smooths the predicted runtime-vs-scale-out curve into a monotone
// (non-increasing) shape, and returns the cheapest configuration that
// satisfies the SLO — the decision layer the paper motivates runtime
// prediction with ("choosing a suitable resource configuration").
//
// The engine is deliberately predictor-agnostic: anything exposing the
// batched inference surface of core.Model (or serve.Model) plugs in, and
// scale-out-only baselines adapt via FromPointPredictor. When a model
// reports too little fine-tune support for the target context and the
// request carries observed (scale-out, runtime) points, the engine falls
// back to the interpolation baseline over those points instead of
// trusting an unadapted neural sweep.
package allocate

import (
	"fmt"
	"unsafe"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/encoding"
)

// Predictor is the minimal batched-inference surface the engine sweeps.
// core.Model and serve.Model implement it.
type Predictor interface {
	PredictBatchInto(dst []float64, qs []core.Query) error
}

// SupportReporter is optionally implemented by predictors that know how
// much training support they have: whether they were pre-trained at all
// and how many context-specific samples the model instance was last
// fine-tuned on. The engine consults it for the fallback decision.
type SupportReporter interface {
	Pretrained() bool
	FinetuneSamples() int
}

// Source labels where the runtime curve of a Result came from.
type Source string

const (
	// SourceModel marks a curve swept from the neural model.
	SourceModel Source = "model"
	// SourceInterp marks a curve from the interpolation fallback over
	// the request's observed points.
	SourceInterp Source = "interp"
)

// MaxCandidates bounds one allocation sweep; a request expanding to more
// candidates is rejected rather than silently truncated.
const MaxCandidates = 4096

// Request is one allocation query: the context to allocate for, the
// candidate scale-outs, the SLO, and the cost model.
type Request struct {
	// Essential / Optional are the descriptive properties of the
	// execution context, in model order (as for a prediction).
	Essential []encoding.Property
	Optional  []encoding.Property

	// MinScaleOut..MaxScaleOut (inclusive) in steps of Step (0 = 1)
	// define the candidate range. Candidates, when non-empty, overrides
	// the range with an explicit strictly-ascending list — used e.g. by
	// the experiments to sweep exactly the scale-outs that have ground
	// truth.
	MinScaleOut int
	MaxScaleOut int
	Step        int
	Candidates  []int

	// DeadlineSec is the runtime SLO in seconds.
	DeadlineSec float64
	// CostPerNodeHour prices one node for one hour; the cost of a
	// configuration is scaleOut * runtime * CostPerNodeHour.
	CostPerNodeHour float64
	// SafetyMargin reserves this fraction of the deadline as headroom:
	// a candidate satisfies the SLO only when its (smoothed) runtime
	// stays below DeadlineSec * (1 - SafetyMargin). Zero means none.
	SafetyMargin float64

	// MinModelSamples is the fine-tune support the model must report
	// for the engine to trust it (0 = always trust). Below it the
	// engine falls back to interpolating Observations; without
	// observations it proceeds but flags the result LowSupport.
	MinModelSamples int
	// Observations are measured (scale-out, runtime) points of this
	// context, the substrate of the interpolation fallback.
	Observations []baselines.Point
}

// CurvePoint is one annotated candidate of the sweep.
type CurvePoint struct {
	ScaleOut int
	// PredictedSec is the raw predictor output (floored at zero).
	PredictedSec float64
	// SmoothedSec is the isotonic (non-increasing) fit the decision
	// uses; raw neural sweeps can jitter non-monotonically, which makes
	// the cheapest-feasible argmin unstable.
	SmoothedSec float64
	// Cost is scaleOut * SmoothedSec/3600 * CostPerNodeHour.
	Cost float64
	// MeetsSLO reports whether SmoothedSec fits the effective deadline.
	MeetsSLO bool
}

// Result is the outcome of one allocation sweep.
type Result struct {
	// Chosen is the selected configuration: the cheapest SLO-satisfying
	// candidate, or the best-effort (fastest, then cheapest) candidate
	// when no candidate satisfies the SLO.
	Chosen CurvePoint
	// Feasible reports whether Chosen satisfies the SLO.
	Feasible bool
	// Fallback reports that the interpolation baseline produced the
	// curve instead of the model (see Request.MinModelSamples).
	Fallback bool
	// LowSupport reports that the model had less fine-tune support than
	// requested but no observations were available to fall back on, so
	// the model sweep was used anyway.
	LowSupport bool
	// Source labels the curve's origin (model or interp).
	Source Source
	// MarginSec is DeadlineSec minus the chosen smoothed runtime — the
	// confidence margin of the decision. Negative when infeasible.
	MarginSec float64
	// MarginFrac is MarginSec relative to the deadline.
	MarginFrac float64
	// Curve holds every annotated candidate in ascending scale-out
	// order. The slice is owned by the Result and reused by
	// AllocateInto calls on the same Result value.
	Curve []CurvePoint
}

// Engine runs allocation sweeps. It owns reusable query, prediction and
// smoothing buffers, so a warm sweep (candidate count already seen)
// against a warm model allocates nothing. An Engine is not safe for
// concurrent use; the serving layer lends one to each request from a
// free list.
type Engine struct {
	queries []core.Query
	preds   []float64

	// PAVA block scratch (see isotonic.go).
	blockMean []float64
	blockLen  []int

	interp *baselines.Interpolator
}

// NewEngine returns an empty engine; buffers grow on first use.
func NewEngine() *Engine { return &Engine{interp: baselines.NewInterpolator()} }

// Reset readies the engine for its next user. It has nothing to drop:
// AllocateInto clears the queries that referenced a request's properties
// before it returns.
func (e *Engine) Reset() {}

// Bytes reports the memory the engine's buffers hold.
func (e *Engine) Bytes() int {
	return cap(e.queries)*int(unsafe.Sizeof(core.Query{})) +
		8*(cap(e.preds)+cap(e.blockMean)+cap(e.blockLen)) + e.interp.Bytes()
}

// Allocate is the allocating convenience form of AllocateInto.
func (e *Engine) Allocate(p Predictor, req Request) (*Result, error) {
	res := &Result{}
	if err := e.AllocateInto(res, p, req); err != nil {
		return nil, err
	}
	return res, nil
}

// numCandidates validates the candidate specification and returns the
// sweep size.
func numCandidates(req Request) (int, error) {
	if len(req.Candidates) > 0 {
		prev := 0
		for _, c := range req.Candidates {
			if c <= prev {
				return 0, fmt.Errorf("allocate: candidates must be strictly ascending and positive, got %v", req.Candidates)
			}
			prev = c
		}
		if len(req.Candidates) > MaxCandidates {
			return 0, fmt.Errorf("allocate: %d candidates exceed limit %d", len(req.Candidates), MaxCandidates)
		}
		return len(req.Candidates), nil
	}
	step := req.Step
	if step == 0 {
		step = 1
	}
	if step < 0 {
		return 0, fmt.Errorf("allocate: step %d must be positive", step)
	}
	if req.MinScaleOut <= 0 {
		return 0, fmt.Errorf("allocate: min scale-out %d must be positive", req.MinScaleOut)
	}
	if req.MaxScaleOut < req.MinScaleOut {
		return 0, fmt.Errorf("allocate: max scale-out %d below min %d", req.MaxScaleOut, req.MinScaleOut)
	}
	n := (req.MaxScaleOut-req.MinScaleOut)/step + 1
	if n > MaxCandidates {
		return 0, fmt.Errorf("allocate: %d candidates exceed limit %d", n, MaxCandidates)
	}
	return n, nil
}

// candidate returns the i-th candidate scale-out of the request.
func candidate(req Request, i int) int {
	if len(req.Candidates) > 0 {
		return req.Candidates[i]
	}
	step := req.Step
	if step == 0 {
		step = 1
	}
	return req.MinScaleOut + i*step
}

// AllocateInto runs one allocation sweep, writing the outcome into res.
// res.Curve is reused across calls on the same Result. The model path is
// allocation-free once the candidate count and context properties have
// been seen (warm model, warm engine).
func (e *Engine) AllocateInto(res *Result, p Predictor, req Request) error {
	n, err := numCandidates(req)
	if err != nil {
		return err
	}
	if req.DeadlineSec <= 0 {
		return fmt.Errorf("allocate: deadline %v must be positive", req.DeadlineSec)
	}
	if req.CostPerNodeHour < 0 {
		return fmt.Errorf("allocate: cost per node-hour %v must not be negative", req.CostPerNodeHour)
	}
	if req.SafetyMargin < 0 || req.SafetyMargin >= 1 {
		return fmt.Errorf("allocate: safety margin %v outside [0, 1)", req.SafetyMargin)
	}

	fallback, lowSupport := e.decideSource(p, req)
	if cap(e.preds) < n {
		e.preds = make([]float64, n)
	}
	preds := e.preds[:n]

	if fallback {
		if err := e.interp.Fit(req.Observations); err != nil {
			return fmt.Errorf("allocate: fitting fallback interpolator: %w", err)
		}
		for i := range preds {
			v, err := e.interp.Predict(candidate(req, i))
			if err != nil {
				return fmt.Errorf("allocate: fallback prediction: %w", err)
			}
			preds[i] = v
		}
	} else {
		if cap(e.queries) < n {
			e.queries = make([]core.Query, n)
		}
		qs := e.queries[:n]
		for i := range qs {
			qs[i] = core.Query{
				ScaleOut:  candidate(req, i),
				Essential: req.Essential,
				Optional:  req.Optional,
			}
		}
		err := p.PredictBatchInto(preds, qs)
		clear(qs) // don't pin the caller's property slices
		if err != nil {
			return err
		}
		for i, v := range preds {
			if v < 0 { // defense in depth; core clamps at its boundary too
				preds[i] = 0
			}
		}
	}

	// Smooth the sweep into the non-increasing shape scale-out curves
	// are modeled to have (Ernest's assumption, and what makes the
	// cheapest-feasible choice a stable threshold crossing).
	res.Curve = res.Curve[:0]
	for i, v := range preds {
		res.Curve = append(res.Curve, CurvePoint{ScaleOut: candidate(req, i), PredictedSec: v})
	}
	e.smoothDecreasing(res.Curve)

	effDeadline := req.DeadlineSec * (1 - req.SafetyMargin)
	chosen, feasible := -1, false
	best := -1 // best effort: min smoothed runtime, then min cost
	for i := range res.Curve {
		cp := &res.Curve[i]
		cp.Cost = float64(cp.ScaleOut) * cp.SmoothedSec / 3600 * req.CostPerNodeHour
		cp.MeetsSLO = cp.SmoothedSec <= effDeadline
		if cp.MeetsSLO && (chosen < 0 || cp.Cost < res.Curve[chosen].Cost) {
			chosen = i
			feasible = true
		}
		if best < 0 || cp.SmoothedSec < res.Curve[best].SmoothedSec ||
			(cp.SmoothedSec == res.Curve[best].SmoothedSec && cp.Cost < res.Curve[best].Cost) {
			best = i
		}
	}
	if chosen < 0 {
		chosen = best
	}

	res.Chosen = res.Curve[chosen]
	res.Feasible = feasible
	res.Fallback = fallback
	res.LowSupport = lowSupport
	res.Source = SourceModel
	if fallback {
		res.Source = SourceInterp
	}
	res.MarginSec = req.DeadlineSec - res.Chosen.SmoothedSec
	res.MarginFrac = res.MarginSec / req.DeadlineSec
	return nil
}

// decideSource reports whether to fall back to interpolation, and
// whether the model is being used despite insufficient support. A model
// is distrusted when it reports fewer fine-tune samples than the request
// demands, or when it is neither pre-trained nor fine-tuned at all.
func (e *Engine) decideSource(p Predictor, req Request) (fallback, lowSupport bool) {
	sr, ok := p.(SupportReporter)
	if !ok {
		return false, false
	}
	samples := sr.FinetuneSamples()
	distrust := samples < req.MinModelSamples || (!sr.Pretrained() && samples == 0)
	if !distrust {
		return false, false
	}
	if len(req.Observations) > 0 {
		return true, false
	}
	return false, true
}

// pointPredictor adapts a scale-out-only predictor (the Ernest/Bell
// baselines, or a fitted core.ContextPredictor) to the engine's batched
// interface; query properties are ignored.
type pointPredictor struct{ p baselines.Predictor }

// FromPointPredictor wraps a fitted baselines.Predictor for the engine.
func FromPointPredictor(p baselines.Predictor) Predictor { return pointPredictor{p} }

// PredictBatchInto implements Predictor.
func (pp pointPredictor) PredictBatchInto(dst []float64, qs []core.Query) error {
	for i, q := range qs {
		v, err := pp.p.Predict(q.ScaleOut)
		if err != nil {
			return err
		}
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
	return nil
}
