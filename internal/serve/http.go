package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/allocate"
	"repro/internal/api"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/loadctl"
	"repro/internal/obs"
)

// The /v1 surface is declared once, here, over a Backend: a *Service, or
// internal/shard's *Cluster routing to several. The wire DTOs live in
// internal/api; this file converts between them and the serving layer's
// native types and runs the request pipeline.

// Backend is what the /v1 pipeline fronts.
type Backend interface {
	// The four calls pass the owning service's admission gate (see
	// Service.AdmitPredict and its siblings) and record their stages on
	// tr, nil for an untraced request. AdmitBatch answers into dst's
	// storage when it has the capacity; its error is the refusal of the
	// whole batch, per-request failures are in the responses.
	AdmitPredict(ctx context.Context, req Request, tr *obs.Trace) Response
	AdmitBatch(ctx context.Context, dst []Response, reqs []Request, tr *obs.Trace) ([]Response, error)
	AdmitAllocate(ctx context.Context, key ModelKey, req allocate.Request, tr *obs.Trace) (*allocate.Result, error)
	AdmitObserve(ctx context.Context, key ModelKey, q core.Query, runtimeSec float64, tr *obs.Trace) error

	// StatsBody is the body of GET /v1/stats.
	StatsBody() any
	// Draining reports whether shutdown drain has started.
	Draining() bool
	// LoadControl is the front-end's share of load control: the
	// per-client limiter and the deadline cap. Read per request, so it
	// may be attached after the handler is built.
	LoadControl() LoadControl
	// Obs is the attached observability layer, or nil; read per request
	// like LoadControl.
	Obs() *Observability
	// CountDeadlineReject counts one request answered 504.
	CountDeadlineReject()
}

// MaxBodyBytes bounds request bodies so one oversized POST cannot
// exhaust server memory; MaxBatchRequests bounds the per-batch fan-out.
const (
	MaxBodyBytes     = 8 << 20 // 8 MiB
	MaxBatchRequests = 10000
)

// NewHandler returns the HTTP API over b:
//
//	POST /v1/predict        api.PredictRequest -> api.PredictResponse
//	POST /v1/predict/batch  api.BatchRequest -> api.BatchResponse
//	POST /v1/allocate       api.AllocateRequest -> api.AllocateResponse
//	POST /v1/observe        api.ObserveRequest -> api.ObserveResponse (202)
//	GET  /v1/stats          b.StatsBody()
//	GET  /metrics           Prometheus text, 404 without a metrics registry
//	GET  /v1/debug/slow     api.SlowTracesResponse, 404 without a tracer
//	GET  /healthz           200 ok, 503 while draining
//
// Every POST route is the same pipeline (see post): trace, per-client
// rate limit against the headers, bounded body read, decode and
// validate, X-Deadline-Ms context, the backend's Admit* call, one error
// classifier, encode. Every non-2xx response carries the unified error
// envelope {"error":{"code","message","retry_after_ms"}}
// (api.ErrorEnvelope), a 504 from a traced request also the trace ID and
// the spans recorded before the budget ran out.
func NewHandler(b Backend) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", post(b, http.StatusOK, (*requestScratch).decodePredict, callPredict))
	mux.HandleFunc("POST /v1/predict/batch", post(b, http.StatusOK, decodeBatch, callBatch))
	mux.HandleFunc("POST /v1/allocate", post(b, http.StatusOK, decodeAllocate, callAllocate))
	mux.HandleFunc("POST /v1/observe", post(b, http.StatusAccepted, decodeObserve, callObserve))
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, b.StatsBody())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if o := b.Obs(); o != nil && o.Metrics != nil {
			o.Metrics.Handler().ServeHTTP(w, r)
			return
		}
		http.NotFound(w, r)
	})
	mux.HandleFunc("GET /v1/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		if o := b.Obs(); o != nil && o.Tracer != nil {
			api.WriteJSON(w, slowTracesPayload(o.Tracer))
			return
		}
		http.NotFound(w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// A draining server answers not-ready so load balancers stop
		// routing new work to it while in-flight requests finish.
		if b.Draining() {
			fail(b, w, api.Errorf(api.CodeDraining, "serve: draining").WithRetryAfter(time.Second), nil)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Handler returns the service's HTTP API, NewHandler over the service
// itself.
func (s *Service) Handler() http.Handler { return NewHandler(s) }

// StatsBody implements Backend.
func (s *Service) StatsBody() any { return s.Stats() }

// post builds one POST route of the pipeline. decode turns the body in
// the scratch into the route's request, validating it; call hands that
// to the backend under the request's deadline and returns the body to
// encode under status. An error from either — a malformed body included
// — is answered by fail.
func post[T any](b Backend, status int,
	decode func(*requestScratch) (T, error),
	call func(Backend, context.Context, T, *requestScratch, *obs.Trace) (any, error),
) http.HandlerFunc {
	run := func(w http.ResponseWriter, r *http.Request, sc *requestScratch, tr *obs.Trace) (any, error) {
		lc := b.LoadControl()
		t0 := tr.Clock()
		// The limiter sees only the headers, so a limited client is
		// answered before its upload is read.
		if err := rateLimit(lc.Limiter, r); err != nil {
			return nil, err
		}
		tr.Record(obs.StageRateLimit, -1, t0)
		t0 = tr.Clock()
		if err := sc.readBody(w, r); err != nil {
			return nil, err
		}
		in, err := decode(sc)
		if err != nil {
			return nil, err
		}
		tr.Record(obs.StageDecode, -1, t0)
		ctx, cancel := requestContext(r)
		defer cancel()
		return call(b, ctx, in, sc, tr)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		o := b.Obs()
		tr := startTrace(o, w, r)
		defer finishTrace(o, tr)
		sc := acquireRequestScratch()
		defer sc.release()
		out, err := run(w, r, sc, tr)
		if err != nil {
			fail(b, w, err, tr)
			return
		}
		t0 := tr.Clock()
		if status != http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
		}
		api.WriteJSON(w, out)
		tr.Record(obs.StageEncode, -1, t0)
	}
}

func callPredict(b Backend, ctx context.Context, req Request, _ *requestScratch, tr *obs.Trace) (any, error) {
	resp := b.AdmitPredict(ctx, req, tr)
	if resp.Err == nil {
		return api.PredictResponse{RuntimeSec: resp.RuntimeSec, Cached: resp.Cached}, nil
	}
	// What went wrong with the request stays in the body of a 200, as in
	// a batch; what went wrong with the server (a shed, a dead shard, a
	// blown deadline) is an HTTP error.
	e := toAPIError(resp.Err)
	if statusOf(e.Code) >= http.StatusInternalServerError {
		return nil, e
	}
	return api.PredictResponse{Error: e}, nil
}

func decodeBatch(sc *requestScratch) (struct{}, error) { return struct{}{}, sc.decodeBatch() }

func callBatch(b Backend, ctx context.Context, _ struct{}, sc *requestScratch, tr *obs.Trace) (any, error) {
	// The well-formed subset is served as one batch.
	answers, err := b.AdmitBatch(ctx, sc.answers, sc.live, tr)
	if err != nil {
		return nil, err
	}
	sc.answers = answers
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sc.batchResponse(answers), nil
}

type allocateCall struct {
	key ModelKey
	req allocate.Request
}

func decodeAllocate(sc *requestScratch) (allocateCall, error) {
	var in api.AllocateRequest
	// Unmarshal, unlike a json.Decoder, refuses data after the value.
	if err := json.Unmarshal(sc.body, &in); err != nil {
		return allocateCall{}, decodeError(err)
	}
	key, req, err := ToAllocateRequest(in)
	return allocateCall{key, req}, err
}

func callAllocate(b Backend, ctx context.Context, in allocateCall, _ *requestScratch, tr *obs.Trace) (any, error) {
	res, err := b.AdmitAllocate(ctx, in.key, in.req, tr)
	if err != nil {
		return nil, err
	}
	return toAllocateResponse(res), nil
}

type observeCall struct {
	req        Request
	runtimeSec float64
}

func decodeObserve(sc *requestScratch) (observeCall, error) {
	var in api.ObserveRequest
	if err := json.Unmarshal(sc.body, &in); err != nil {
		return observeCall{}, decodeError(err)
	}
	// Not into the scratch: the observer keeps the query.
	req, err := ToRequest(in.PredictRequest)
	return observeCall{req, in.RuntimeSec}, err
}

func callObserve(b Backend, ctx context.Context, in observeCall, _ *requestScratch, tr *obs.Trace) (any, error) {
	if err := b.AdmitObserve(ctx, in.req.Key, in.req.Query, in.runtimeSec, tr); err != nil {
		return nil, err
	}
	return api.ObserveResponse{Accepted: true}, nil
}

// rateLimit runs the per-client token bucket, if there is one.
func rateLimit(l *loadctl.Limiter, r *http.Request) error {
	if l == nil {
		return nil
	}
	ok, retryAfter := l.Allow(clientKey(r), time.Now())
	if ok {
		return nil
	}
	return api.Errorf(api.CodeRateLimited, "serve: client rate limit exceeded").WithRetryAfter(retryAfter)
}

// clientKey identifies the requester for rate limiting: the API key
// header when present, else the host part of the remote address (so
// all connections from one host share a bucket regardless of port).
// Substring-only — no allocation on the admit path.
func clientKey(r *http.Request) string {
	if k := r.Header.Get(api.ClientKeyHeader); k != "" {
		return k
	}
	addr := r.RemoteAddr
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// requestContext derives a handler context from the client's deadline
// budget header. Absent (or unparseable) headers fall back to the
// request's own context; a present budget is capped at
// DefaultMaxDeadline so a client cannot pin server resources with an
// hour-long deadline. Work whose budget has run out is abandoned instead
// of computed for nobody.
func requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	h := r.Header.Get(api.DeadlineHeader)
	if h == "" {
		return r.Context(), func() {}
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return r.Context(), func() {}
	}
	// Capping ms before the conversion keeps a huge header from
	// overflowing into a negative, already-expired budget.
	budget := time.Duration(min(ms, DefaultMaxDeadline.Milliseconds())) * time.Millisecond
	return context.WithTimeout(r.Context(), budget)
}

// isDeadline reports whether err is a context expiry (server-side
// deadline or client disconnect), which the HTTP layer answers 504.
func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// fail answers a request with err: toAPIError types it, statusOf picks
// the status. A 504 is counted, and from a traced request carries the
// trace ID and the spans recorded before the budget ran out.
func fail(b Backend, w http.ResponseWriter, err error, tr *obs.Trace) {
	e := toAPIError(err)
	switch e.Code {
	case api.CodeDeadlineExceeded:
		b.CountDeadlineReject()
		if tr != nil {
			e.TraceID = tr.ID()
			e.Spans = spanSummaries(tr.Spans())
		}
	case api.CodeObserveCapacity:
		// A valid request met a server-side condition that passes.
		e = e.WithRetryAfter(time.Second)
	}
	api.WriteError(w, statusOf(e.Code), e)
}

// toAPIError maps a serving-layer error to the unified typed error. An
// error that already is an *api.Error (a refused admission, a rejected
// body) passes through unchanged.
func toAPIError(err error) *api.Error {
	var typed *api.Error
	switch {
	case errors.As(err, &typed):
		return typed
	case isDeadline(err):
		return api.Errorf(api.CodeDeadlineExceeded, "serve: deadline exceeded: %v", err)
	case errors.Is(err, ErrModelUnavailable):
		// An unloadable model is the server's (or deployment's) problem,
		// not a malformed request: clients must not treat it as
		// permanently invalid input.
		return api.Errorf(api.CodeModelNotFound, "%v", err)
	case errors.Is(err, ErrObserveDisabled):
		return api.Errorf(api.CodeObserveDisabled, "%v", err)
	case errors.Is(err, ErrObserveCapacity):
		return api.Errorf(api.CodeObserveCapacity, "%v", err)
	default:
		return api.Errorf(api.CodeBadRequest, "%v", err)
	}
}

// statusOf is the HTTP status an error code is answered with.
func statusOf(code string) int {
	switch code {
	case api.CodeModelNotFound:
		return http.StatusNotFound
	case api.CodePayloadTooLarge:
		return http.StatusRequestEntityTooLarge
	case api.CodeRateLimited, api.CodeObserveCapacity:
		return http.StatusTooManyRequests
	case api.CodeObserveDisabled, api.CodeOverloaded, api.CodeDraining:
		return http.StatusServiceUnavailable
	case api.CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case api.CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// ToRequest converts the wire form of a prediction request into the
// service's native form, validating required fields. The request owns
// its property slices; the predict routes convert into a requestScratch
// from a free list instead.
func ToRequest(in api.PredictRequest) (Request, error) {
	var sc requestScratch
	return sc.convert(&in)
}

// toAPIResponse converts a service response to its wire form, mapping
// any error to the typed envelope payload.
func toAPIResponse(r Response) api.PredictResponse {
	if r.Err != nil {
		return api.PredictResponse{Error: toAPIError(r.Err)}
	}
	return api.PredictResponse{RuntimeSec: r.RuntimeSec, Cached: r.Cached}
}

// ToAllocateRequest converts the wire form of an allocation request.
func ToAllocateRequest(in api.AllocateRequest) (ModelKey, allocate.Request, error) {
	if in.Job == "" {
		return ModelKey{}, allocate.Request{}, fmt.Errorf("serve: request missing job")
	}
	req := allocate.Request{
		MinScaleOut:     in.MinScaleOut,
		MaxScaleOut:     in.MaxScaleOut,
		Step:            in.Step,
		Candidates:      in.Candidates,
		DeadlineSec:     in.DeadlineSec,
		CostPerNodeHour: in.CostPerNodeHour,
		SafetyMargin:    in.SafetyMargin,
		MinModelSamples: in.MinModelSamples,
	}
	for _, p := range in.Essential {
		req.Essential = append(req.Essential, encoding.Property{Name: p.Name, Value: p.Value})
	}
	for _, p := range in.Optional {
		req.Optional = append(req.Optional, encoding.Property{Name: p.Name, Value: p.Value, Optional: true})
	}
	for _, o := range in.Observations {
		req.Observations = append(req.Observations, baselines.Point{ScaleOut: o.ScaleOut, Runtime: o.RuntimeSec})
	}
	return ModelKey{Job: in.Job, Env: in.Env}, req, nil
}

// toAllocateResponse converts an allocation decision to its wire form.
func toAllocateResponse(res *allocate.Result) api.AllocateResponse {
	out := api.AllocateResponse{
		ScaleOut:     res.Chosen.ScaleOut,
		PredictedSec: res.Chosen.SmoothedSec,
		Cost:         res.Chosen.Cost,
		Feasible:     res.Feasible,
		Fallback:     res.Fallback,
		LowSupport:   res.LowSupport,
		Source:       string(res.Source),
		MarginSec:    res.MarginSec,
		MarginFrac:   res.MarginFrac,
		Curve:        make([]api.CurvePoint, len(res.Curve)),
	}
	for i, cp := range res.Curve {
		out.Curve[i] = api.CurvePoint{
			ScaleOut:     cp.ScaleOut,
			PredictedSec: cp.PredictedSec,
			SmoothedSec:  cp.SmoothedSec,
			Cost:         cp.Cost,
			MeetsSLO:     cp.MeetsSLO,
		}
	}
	return out
}
