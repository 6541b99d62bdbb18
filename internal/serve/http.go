package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/allocate"
	"repro/internal/api"
	"repro/internal/baselines"
	"repro/internal/encoding"
	"repro/internal/loadctl"
	"repro/internal/obs"
)

// The wire DTOs of the /v1 surface live in internal/api — this file
// only converts between them and the serving layer's native types and
// wires the routes. The shard router reuses the exported converters,
// so both the single-process and sharded handlers speak byte-identical
// JSON.

// ToRequest converts the wire form of a prediction request into the
// service's native form, validating required fields. The request owns
// its property slices; the predict routes convert into a pooled
// RequestScratch instead.
func ToRequest(in api.PredictRequest) (Request, error) {
	var sc RequestScratch
	return sc.convert(&in)
}

// ToAPIResponse converts a service response to its wire form, mapping
// any error to the typed envelope payload.
func ToAPIResponse(r Response) api.PredictResponse {
	if r.Err != nil {
		return api.PredictResponse{Error: ToAPIError(r.Err)}
	}
	return api.PredictResponse{RuntimeSec: r.RuntimeSec, Cached: r.Cached}
}

// ToAPIError maps a serving-layer error to the unified typed error. An
// error that already is an *api.Error (a shard router forwarding a
// peer's typed answer) passes through unchanged.
func ToAPIError(err error) *api.Error {
	var typed *api.Error
	switch {
	case errors.As(err, &typed):
		return typed
	case isDeadline(err):
		return api.Errorf(api.CodeDeadlineExceeded, "serve: deadline exceeded: %v", err)
	case errors.Is(err, ErrModelUnavailable):
		return api.Errorf(api.CodeModelNotFound, "%v", err)
	case errors.Is(err, ErrObserveDisabled):
		return api.Errorf(api.CodeObserveDisabled, "%v", err)
	case errors.Is(err, ErrObserveCapacity):
		return api.Errorf(api.CodeObserveCapacity, "%v", err)
	default:
		return api.Errorf(api.CodeBadRequest, "%v", err)
	}
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

// ToAllocateResponse converts an allocation decision to its wire form.
func ToAllocateResponse(res *allocate.Result) api.AllocateResponse {
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

// MaxBodyBytes bounds request bodies so one oversized POST cannot
// exhaust server memory; MaxBatchRequests bounds the per-batch fan-out.
const (
	MaxBodyBytes     = 8 << 20 // 8 MiB
	MaxBatchRequests = 10000
)

// DecodeBody decodes a bounded JSON request body into v with
// encoding/json, the decoder of the routes outside the predict path. The
// body must be one JSON value: anything but whitespace after it is
// malformed. On failure it writes the enveloped response (see
// writeDecodeError) and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		// Only the end of the body may follow: a token is trailing data.
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errTrailingData
		}
	}
	writeDecodeError(w, err)
	return false
}

var errTrailingData = errors.New("serve: data after the JSON body")

// StatsPayload snapshots the service counters in wire form, the body
// of GET /v1/stats. The shard router embeds one per shard.
func (s *Service) StatsPayload() api.Stats {
	st := s.Stats()
	out := api.Stats{
		SchemaVersion:   api.StatsSchemaVersion,
		Requests:        st.Requests,
		Calls:           st.Calls,
		ResultHits:      st.ResultHits,
		ResultMisses:    st.ResultMisses,
		ResultCacheLen:  st.ResultCacheLen,
		MeanLatencyUsec: float64(st.MeanLatency.Nanoseconds()) / 1e3,
		ModelHits:       st.Registry.Hits,
		ModelMisses:     st.Registry.Misses,
		ModelLoads:      st.Registry.Loads,
		ModelLoadErrors: st.Registry.LoadErrors,
		ModelEvictions:  st.Registry.Evictions,
		ModelSwaps:      st.Registry.Swaps,
		Alloc: api.AllocStats{
			Requests:        st.Alloc.Requests,
			Errors:          st.Alloc.Errors,
			Violations:      st.Alloc.Violations,
			Fallbacks:       st.Alloc.Fallbacks,
			MeanLatencyUsec: float64(st.Alloc.MeanLatency.Nanoseconds()) / 1e3,
		},
	}
	if ls, ok := s.lifecycleStats(); ok {
		out.Lifecycle = &api.LifecycleStats{
			Observations:     ls.Observations,
			Rejected:         ls.Rejected,
			PendingSamples:   ls.PendingSamples,
			Finetunes:        ls.Finetunes,
			FinetuneErrors:   ls.FinetuneErrors,
			Swaps:            ls.Swaps,
			SwapsSkipped:     ls.SwapsSkipped,
			MeanFinetuneUsec: float64(ls.MeanFinetune.Nanoseconds()) / 1e3,
			Restored:         ls.Restored,
			LogErrors:        ls.LogErrors,
		}
	}
	if ds, ok := s.storeStats(); ok {
		out.Store = &api.StoreStats{
			WALAppends:           ds.WALAppends,
			WALAppendedBytes:     ds.WALAppendedBytes,
			WALSegments:          ds.WALSegments,
			WALActiveSeq:         ds.WALActiveSeq,
			Fsyncs:               ds.Fsyncs,
			RepairedBytes:        ds.RepairedBytes,
			ReplayedObservations: ds.ReplayedObservations,
			ReplayedDigests:      ds.ReplayedDigests,
			CorruptSegments:      ds.CorruptSegments,
			Compactions:          ds.Compactions,
			CompactedRecords:     ds.CompactedRecords,
			CompactSegments:      ds.CompactSegments,
			Checkpoints:          ds.Checkpoints,
			CheckpointErrors:     ds.CheckpointErrors,
			CheckpointLoads:      ds.CheckpointLoads,
		}
	}
	if lc := st.LoadCtl; lc != nil {
		out.LoadCtl = &api.LoadCtlStats{
			RateLimited:       lc.RateLimited,
			Clients:           lc.Clients,
			ClientsEvicted:    lc.ClientsEvicted,
			Admitted:          lc.Admitted,
			Queued:            lc.Queued,
			ShedQueueFull:     lc.ShedQueueFull,
			ShedTimeout:       lc.ShedTimeout,
			ShedCanceled:      lc.ShedCanceled,
			GateBypassed:      lc.GateBypassed,
			DeadlineRejects:   lc.DeadlineRejects,
			MeanQueueWaitUsec: float64(lc.MeanQueueWait.Nanoseconds()) / 1e3,
			Draining:          lc.Draining,
		}
	}
	out.Obs = s.obsStatsPayload()
	return out
}

// Handler returns the HTTP API of the service:
//
//	POST /v1/predict        api.PredictRequest -> api.PredictResponse
//	POST /v1/predict/batch  api.BatchRequest -> api.BatchResponse
//	POST /v1/allocate       api.AllocateRequest -> api.AllocateResponse
//	POST /v1/observe        api.ObserveRequest -> api.ObserveResponse
//	GET  /v1/stats          api.Stats
//	GET  /healthz           200 ok, 503 while draining
//
// Every non-2xx response carries the unified error envelope
// {"error":{"code","message","retry_after_ms"}} (api.ErrorEnvelope).
//
// When load control is attached (AttachLoadControl), every POST route
// runs the per-client rate limiter against the headers before reading
// the body, then passes the admission gate at a route-dependent cost;
// cache-hit predicts bypass the gate entirely.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		tr := s.startTrace(w, r)
		defer s.finishTrace(tr)
		t0 := tr.Clock()
		if !s.rateLimit(w, r) {
			return
		}
		tr.Record(obs.StageRateLimit, -1, t0)
		t0 = tr.Clock()
		sc := AcquireRequestScratch()
		defer sc.Release()
		req, ok := sc.DecodePredict(w, r)
		if !ok {
			return
		}
		tr.Record(obs.StageDecode, -1, t0)
		t0 = tr.Clock()
		// A result-cache hit answers from memory in microseconds: let it
		// bypass the gate so cached traffic keeps flowing at full rate
		// even when the gate is saturated with expensive work.
		if s.PeekCached(req.Key, req.Query) {
			tr.Record(obs.StageClassify, -1, t0)
			s.gateBypassed.Add(1)
			t0 = tr.Clock()
			resp := s.Predict(r.Context(), req.Key, req.Query)
			tr.Record(obs.StagePredict, -1, t0)
			t0 = tr.Clock()
			api.WriteJSON(w, ToAPIResponse(resp))
			tr.Record(obs.StageEncode, -1, t0)
			return
		}
		ctx, cancel := s.requestContext(r)
		defer cancel()
		// Predicting on a resident model is cheap; a cold model load is
		// not, and sheds first under pressure.
		cost := loadctl.CostHeavy
		if s.reg.Resident(req.Key) {
			cost = loadctl.CostCheap
		}
		tr.Record(obs.StageClassify, -1, t0)
		release, ok := s.admit(ctx, w, cost, tr)
		if !ok {
			return
		}
		defer release()
		resp := s.PredictTraced(ctx, req.Key, req.Query, tr)
		if resp.Err != nil && isDeadline(resp.Err) {
			s.writeDeadlineError(w, resp.Err, tr)
			return
		}
		t0 = tr.Clock()
		api.WriteJSON(w, ToAPIResponse(resp))
		tr.Record(obs.StageEncode, -1, t0)
	})
	mux.HandleFunc("POST /v1/predict/batch", func(w http.ResponseWriter, r *http.Request) {
		tr := s.startTrace(w, r)
		defer s.finishTrace(tr)
		t0 := tr.Clock()
		if !s.rateLimit(w, r) {
			return
		}
		tr.Record(obs.StageRateLimit, -1, t0)
		t0 = tr.Clock()
		sc := AcquireRequestScratch()
		defer sc.Release()
		if !sc.DecodeBatch(w, r) {
			return
		}
		tr.Record(obs.StageDecode, -1, t0)
		ctx, cancel := s.requestContext(r)
		defer cancel()
		// Batches fan out across models and queries: always heavy.
		release, ok := s.admit(ctx, w, loadctl.CostHeavy, tr)
		if !ok {
			return
		}
		defer release()
		// Serve the well-formed subset in one batch.
		t0 = tr.Clock()
		resp := sc.BatchResponse(s.PredictBatch(ctx, sc.Live))
		tr.Record(obs.StagePredict, -1, t0)
		if err := ctx.Err(); err != nil {
			s.writeDeadlineError(w, err, tr)
			return
		}
		t0 = tr.Clock()
		api.WriteJSON(w, resp)
		tr.Record(obs.StageEncode, -1, t0)
	})
	mux.HandleFunc("POST /v1/allocate", func(w http.ResponseWriter, r *http.Request) {
		if !s.rateLimit(w, r) {
			return
		}
		var in api.AllocateRequest
		if !DecodeBody(w, r, &in) {
			return
		}
		key, req, err := ToAllocateRequest(in)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "%v", err))
			return
		}
		ctx, cancel := s.requestContext(r)
		defer cancel()
		// Allocation sweeps a scale-out range through the model: heavy.
		release, ok := s.admit(ctx, w, loadctl.CostHeavy, nil)
		if !ok {
			return
		}
		defer release()
		res, err := s.Allocate(ctx, key, req)
		if err != nil {
			if isDeadline(err) {
				s.writeDeadlineError(w, err, nil)
				return
			}
			// An unloadable model is the server's (or deployment's)
			// problem, not a malformed request: answer 404 so clients
			// don't treat it as permanently invalid input.
			code := http.StatusBadRequest
			if errors.Is(err, ErrModelUnavailable) {
				code = http.StatusNotFound
			}
			api.WriteError(w, code, ToAPIError(err))
			return
		}
		api.WriteJSON(w, ToAllocateResponse(res))
	})
	mux.HandleFunc("POST /v1/observe", func(w http.ResponseWriter, r *http.Request) {
		if !s.rateLimit(w, r) {
			return
		}
		var in api.ObserveRequest
		if !DecodeBody(w, r, &in) {
			return
		}
		req, err := ToRequest(in.PredictRequest)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "%v", err))
			return
		}
		ctx, cancel := s.requestContext(r)
		defer cancel()
		// An observation is one validation pass plus a WAL append: cheap.
		release, ok := s.admit(ctx, w, loadctl.CostCheap, nil)
		if !ok {
			return
		}
		defer release()
		if err := s.Observe(ctx, req.Key, req.Query, in.RuntimeSec); err != nil {
			if isDeadline(err) {
				s.writeDeadlineError(w, err, nil)
				return
			}
			code := http.StatusBadRequest
			typed := ToAPIError(err)
			switch {
			case errors.Is(err, ErrObserveDisabled):
				code = http.StatusServiceUnavailable
			case errors.Is(err, ErrObserveCapacity):
				// Valid request, server-side limit: retriable, not 4xx
				// client fault.
				code = http.StatusTooManyRequests
				typed = typed.WithRetryAfter(time.Second)
			}
			api.WriteError(w, code, typed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(api.ObserveResponse{Accepted: true})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, s.StatsPayload())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/debug/slow", s.handleSlowTraces)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// A draining server answers not-ready so load balancers stop
		// routing new work to it while in-flight requests finish.
		if s.Draining() {
			api.WriteError(w, http.StatusServiceUnavailable,
				api.Errorf(api.CodeDraining, "serve: draining").WithRetryAfter(time.Second))
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}
