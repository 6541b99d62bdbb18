package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Handler returns the sharded /v1 surface. Routes, DTOs, status codes,
// and the error envelope are identical to serve.(*Service).Handler() —
// including GET /metrics and GET /v1/debug/slow when an observability
// layer is attached — the only addition is GET /v1/shards, the topology
// endpoint. Rate limiting runs once at the router; admission gating
// runs per shard, so a hot shard sheds load without throttling its
// siblings.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		tr := c.startTrace(w, r)
		defer c.finishTrace(tr)
		t0 := tr.Clock()
		if !c.rateLimit(w, r) {
			return
		}
		tr.Record(obs.StageRateLimit, -1, t0)
		t0 = tr.Clock()
		sc := serve.AcquireRequestScratch()
		defer sc.Release()
		req, ok := sc.DecodePredict(w, r)
		if !ok {
			return
		}
		tr.Record(obs.StageDecode, -1, t0)
		t0 = tr.Clock()
		// The owner's result cache answers hits without touching its
		// gate, mirroring the single-shard bypass.
		n := c.nodes[c.ring.Owner(req.Key.Job, req.Key.Env)]
		if !n.down.Load() && n.Service.PeekCached(req.Key, req.Query) {
			tr.Record(obs.StageClassify, -1, t0)
			c.requests.Add(1)
			t0 = tr.Clock()
			resp := n.Service.PredictTraced(r.Context(), req.Key, req.Query, tr)
			tr.Record(obs.StageShardRoute, n.ID, t0)
			t0 = tr.Clock()
			api.WriteJSON(w, serve.ToAPIResponse(resp))
			tr.Record(obs.StageEncode, -1, t0)
			return
		}
		tr.Record(obs.StageClassify, -1, t0)
		ctx, cancel := serve.RequestContext(r, c.opts.MaxDeadline)
		defer cancel()
		resp := c.PredictTraced(ctx, req, tr)
		if resp.Err != nil {
			// Routing-layer failures (dead shard, saturated gate, blown
			// deadline) are HTTP-level errors; model-level failures stay
			// in the response body exactly like the single-shard handler.
			typed := serve.ToAPIError(resp.Err)
			switch typed.Code {
			case api.CodeShardUnavailable:
				api.WriteError(w, http.StatusServiceUnavailable, typed.WithRetryAfter(time.Second))
				return
			case api.CodeOverloaded:
				api.WriteError(w, http.StatusServiceUnavailable, typed)
				return
			case api.CodeDeadlineExceeded:
				c.deadlineRejects.Add(1)
				api.WriteError(w, http.StatusGatewayTimeout, attachTrace(typed, tr))
				return
			}
		}
		t0 = tr.Clock()
		api.WriteJSON(w, serve.ToAPIResponse(resp))
		tr.Record(obs.StageEncode, -1, t0)
	})
	mux.HandleFunc("POST /v1/predict/batch", func(w http.ResponseWriter, r *http.Request) {
		tr := c.startTrace(w, r)
		defer c.finishTrace(tr)
		t0 := tr.Clock()
		if !c.rateLimit(w, r) {
			return
		}
		tr.Record(obs.StageRateLimit, -1, t0)
		t0 = tr.Clock()
		sc := serve.AcquireRequestScratch()
		defer sc.Release()
		if !sc.DecodeBatch(w, r) {
			return
		}
		tr.Record(obs.StageDecode, -1, t0)
		ctx, cancel := serve.RequestContext(r, c.opts.MaxDeadline)
		defer cancel()
		t0 = tr.Clock()
		resp := sc.BatchResponse(c.PredictBatchTraced(ctx, sc.Live, tr))
		tr.Record(obs.StagePredict, -1, t0)
		if err := ctx.Err(); err != nil {
			c.deadlineRejects.Add(1)
			e := api.Errorf(api.CodeDeadlineExceeded, "shard: deadline exceeded: %v", err)
			api.WriteError(w, http.StatusGatewayTimeout, attachTrace(e, tr))
			return
		}
		t0 = tr.Clock()
		api.WriteJSON(w, resp)
		tr.Record(obs.StageEncode, -1, t0)
	})
	mux.HandleFunc("POST /v1/allocate", func(w http.ResponseWriter, r *http.Request) {
		if !c.rateLimit(w, r) {
			return
		}
		var in api.AllocateRequest
		if !serve.DecodeBody(w, r, &in) {
			return
		}
		key, req, err := serve.ToAllocateRequest(in)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "%v", err))
			return
		}
		ctx, cancel := serve.RequestContext(r, c.opts.MaxDeadline)
		defer cancel()
		res, err := c.Allocate(ctx, key, req)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, serve.ErrModelUnavailable) {
				code = http.StatusNotFound
			}
			c.writeStatusError(w, code, err)
			return
		}
		api.WriteJSON(w, serve.ToAllocateResponse(res))
	})
	mux.HandleFunc("POST /v1/observe", func(w http.ResponseWriter, r *http.Request) {
		if !c.rateLimit(w, r) {
			return
		}
		var in api.ObserveRequest
		if !serve.DecodeBody(w, r, &in) {
			return
		}
		req, err := serve.ToRequest(in.PredictRequest)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, api.Errorf(api.CodeBadRequest, "%v", err))
			return
		}
		ctx, cancel := serve.RequestContext(r, c.opts.MaxDeadline)
		defer cancel()
		if err := c.Observe(ctx, req.Key, req.Query, in.RuntimeSec); err != nil {
			code := http.StatusBadRequest
			typed := serve.ToAPIError(err)
			switch {
			case errors.Is(err, serve.ErrObserveDisabled):
				code = http.StatusServiceUnavailable
			case errors.Is(err, serve.ErrObserveCapacity):
				code = http.StatusTooManyRequests
				typed = typed.WithRetryAfter(time.Second)
			default:
				code, typed = c.classifyError(err, typed)
			}
			api.WriteError(w, code, typed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(api.ObserveResponse{Accepted: true})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, c.StatsPayload())
	})
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, c.Topology())
	})
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /v1/debug/slow", c.handleSlowTraces)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if c.Draining() {
			api.WriteError(w, http.StatusServiceUnavailable,
				api.Errorf(api.CodeDraining, "shard: draining").WithRetryAfter(time.Second))
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// rateLimit applies the router-level per-client limiter, if any.
func (c *Cluster) rateLimit(w http.ResponseWriter, r *http.Request) bool {
	if c.opts.Limiter == nil {
		return true
	}
	ok, retryAfter := c.opts.Limiter.Allow(serve.ClientKey(r), time.Now())
	if ok {
		return true
	}
	c.rateLimited.Add(1)
	api.WriteError(w, http.StatusTooManyRequests,
		api.Errorf(api.CodeRateLimited, "shard: client rate limit exceeded").WithRetryAfter(retryAfter))
	return false
}

// classifyError maps routing-layer failures onto HTTP status codes that
// match the single-shard handler's contract; anything already typed
// keeps its code.
func (c *Cluster) classifyError(err error, typed *api.Error) (int, *api.Error) {
	switch typed.Code {
	case api.CodeShardUnavailable:
		return http.StatusServiceUnavailable, typed.WithRetryAfter(time.Second)
	case api.CodeOverloaded:
		return http.StatusServiceUnavailable, typed
	case api.CodeDeadlineExceeded:
		c.deadlineRejects.Add(1)
		return http.StatusGatewayTimeout, typed
	case api.CodeModelNotFound:
		return http.StatusNotFound, typed
	}
	if serve.IsDeadline(err) {
		c.deadlineRejects.Add(1)
		return http.StatusGatewayTimeout, typed
	}
	return http.StatusBadRequest, typed
}

// writeStatusError writes err with a caller-suggested fallback status,
// overridden when the typed code demands a specific one.
func (c *Cluster) writeStatusError(w http.ResponseWriter, fallback int, err error) {
	typed := serve.ToAPIError(err)
	code, typed := c.classifyError(err, typed)
	if code == http.StatusBadRequest && fallback != 0 {
		code = fallback
	}
	api.WriteError(w, code, typed)
}
