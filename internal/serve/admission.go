package serve

import (
	"context"
	"errors"
	"time"

	"repro/internal/allocate"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/loadctl"
	"repro/internal/obs"
)

// The Admit* methods are the service's calls as a front-end makes them:
// through the admission gate of the attached LoadControl, at the cost
// class of the work, recording the stages on tr (nil for an untraced
// request). The plain Predict, PredictBatch, Allocate and Observe skip
// admission; in-process callers that are not serving a client use those.
//
// A request the gate refuses fails with a typed *api.Error: overloaded
// when the gate shed it, deadline_exceeded when its context ended while
// it queued.

// admit passes the gate at the given cost, recording the gate_wait span.
// On admission it returns a release func (never nil) to defer. The gate
// is waited on under ctx, so a client that disconnects or blows its
// deadline while queued frees its queue slot immediately.
func (s *Service) admit(ctx context.Context, cost loadctl.Cost, tr *obs.Trace) (func(), error) {
	lc := s.loadctl.Load()
	if lc == nil || lc.Gate == nil {
		return func() {}, nil
	}
	t0 := tr.Clock()
	err := lc.Gate.Acquire(ctx, cost)
	// Recorded on failure too, so a 504 envelope shows where the budget
	// went.
	tr.Record(obs.StageGateWait, -1, t0)
	switch {
	case err == nil:
		return lc.Gate.Release, nil
	case errors.Is(err, loadctl.ErrOverloaded):
		return nil, api.Errorf(api.CodeOverloaded, "serve: server overloaded, retry later").WithRetryAfter(time.Second)
	default:
		return nil, api.Errorf(api.CodeDeadlineExceeded, "serve: request abandoned while queued: %v", err)
	}
}

// AdmitPredict answers one prediction. A result-cache hit answers from
// memory in microseconds and bypasses the gate, so cached traffic keeps
// flowing at full rate even when the gate is saturated with expensive
// work; a miss is admitted as cheap on a resident model and heavy on one
// that has to be loaded, which sheds first under pressure.
func (s *Service) AdmitPredict(ctx context.Context, req Request, tr *obs.Trace) Response {
	t0 := tr.Clock()
	if resp, ok := s.PredictCached(req.Key, req.Query); ok {
		tr.Record(obs.StagePredict, -1, t0)
		return resp
	}
	cost := loadctl.CostHeavy
	if s.reg.Resident(req.Key) {
		cost = loadctl.CostCheap
	}
	tr.Record(obs.StageClassify, -1, t0)
	release, err := s.admit(ctx, cost, tr)
	if err != nil {
		return Response{Err: err}
	}
	defer release()
	return s.PredictTraced(ctx, req.Key, req.Query, tr)
}

// AdmitBatch answers a batch, which fans out across models and queries
// and is always heavy, into dst's storage (see PredictBatchInto). The
// error is the gate's refusal of the whole batch; per-request failures
// are in the responses.
func (s *Service) AdmitBatch(ctx context.Context, dst []Response, reqs []Request, tr *obs.Trace) ([]Response, error) {
	release, err := s.admit(ctx, loadctl.CostHeavy, tr)
	if err != nil {
		return nil, err
	}
	defer release()
	t0 := tr.Clock()
	out := s.PredictBatchInto(ctx, dst, reqs)
	tr.Record(obs.StagePredict, -1, t0)
	return out, nil
}

// AdmitAllocate answers an allocation query; the sweep of a scale-out
// range through the model is heavy.
func (s *Service) AdmitAllocate(ctx context.Context, key ModelKey, req allocate.Request, tr *obs.Trace) (*allocate.Result, error) {
	release, err := s.admit(ctx, loadctl.CostHeavy, tr)
	if err != nil {
		return nil, err
	}
	defer release()
	t0 := tr.Clock()
	res, err := s.Allocate(ctx, key, req)
	tr.Record(obs.StageAllocate, -1, t0)
	return res, err
}

// AdmitObserve ingests one observation; a validation pass plus a WAL
// append is cheap.
func (s *Service) AdmitObserve(ctx context.Context, key ModelKey, q core.Query, runtimeSec float64, tr *obs.Trace) error {
	release, err := s.admit(ctx, loadctl.CostCheap, tr)
	if err != nil {
		return err
	}
	defer release()
	t0 := tr.Clock()
	err = s.Observe(ctx, key, q, runtimeSec)
	tr.Record(obs.StageObserve, -1, t0)
	return err
}
