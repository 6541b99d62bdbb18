package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/loadctl"
	"repro/internal/serve"
)

// The wire-parity harness: a lone serve.Service and a 1-shard Cluster,
// configured alike, are sent the same requests and must give the same
// answers — status, Content-Type, Retry-After and body, byte for byte —
// on every POST route and /healthz. (GET /v1/stats differs by design and
// GET /v1/shards exists on one side only.)

// parityConfig is what both sides are built from; each gets its own
// limiter, gate and observer from it.
type parityConfig struct {
	limiter  *loadctl.LimiterConfig
	gate     *loadctl.GateConfig
	observer func() serve.Observer
	noModels bool // every model load fails
}

type paritySide struct {
	name     string
	h        http.Handler
	gate     *loadctl.Gate
	draining func(bool)
}

type parityPair [2]paritySide

func newParityPair(t *testing.T, cfg parityConfig) parityPair {
	t.Helper()
	service := func() (*serve.Service, *loadctl.Limiter, *loadctl.Gate) {
		svc := serve.NewService(func(serve.ModelKey) (*core.Model, error) {
			if cfg.noModels {
				return nil, errors.New("no such model file")
			}
			return core.Load(bytes.NewReader(pretrainedBytes(t)))
		}, serve.Options{})
		if cfg.observer != nil {
			svc.AttachObserver(cfg.observer())
		}
		var lim *loadctl.Limiter
		if cfg.limiter != nil {
			lim = loadctl.NewLimiter(*cfg.limiter)
		}
		var gate *loadctl.Gate
		if cfg.gate != nil {
			gate = loadctl.NewGate(*cfg.gate)
		}
		return svc, lim, gate
	}
	lone, lim, gate := service()
	if lim != nil || gate != nil {
		lone.AttachLoadControl(serve.LoadControl{Limiter: lim, Gate: gate})
	}
	pair := parityPair{{name: "service", h: lone.Handler(), gate: gate, draining: lone.SetDraining}}

	svc, lim, gate := service()
	c, err := New([]NodeConfig{{Service: svc, Gate: gate}}, Options{Limiter: lim})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pair[1] = paritySide{name: "cluster", h: c.Handler(), gate: gate, draining: c.SetDraining}
	return pair
}

// same sends one request to both sides, requires the expected status of
// the service and the service's whole answer of the cluster.
func (p parityPair) same(t *testing.T, what, method, route string, body []byte, header map[string]string, status int) {
	t.Helper()
	var recs [2]*httptest.ResponseRecorder
	for i, side := range p {
		req := httptest.NewRequest(method, route, bytes.NewReader(body))
		for k, v := range header {
			req.Header.Set(k, v)
		}
		recs[i] = httptest.NewRecorder()
		side.h.ServeHTTP(recs[i], req)
	}
	want, got := recs[0], recs[1]
	if want.Code != status {
		t.Fatalf("%s %s (%s): service answered %d, want %d: %.300s", method, route, what, want.Code, status, want.Body.Bytes())
	}
	if got.Code != want.Code {
		t.Fatalf("%s %s (%s): cluster answered %d, service %d: %.300s", method, route, what, got.Code, want.Code, got.Body.Bytes())
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if g, w := got.Header().Get(h), want.Header().Get(h); g != w {
			t.Fatalf("%s %s (%s): cluster %s = %q, service %q", method, route, what, h, g, w)
		}
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s %s (%s): bodies differ\ncluster: %.300s\nservice: %.300s", method, route, what, got.Body.Bytes(), want.Body.Bytes())
	}
}

func (p parityPair) post(t *testing.T, what, route string, body []byte, status int) {
	t.Helper()
	p.same(t, what, http.MethodPost, route, body, nil, status)
}

var parityRoutes = []string{"/v1/predict", "/v1/predict/batch", "/v1/allocate", "/v1/observe"}

// parityBodies is one well-formed body per POST route.
func parityBodies(scaleOut int) map[string][]byte {
	one := apiRequest(serve.ModelKey{Job: "sort", Env: "c3o"}, scaleOut)
	out := map[string][]byte{}
	for route, v := range map[string]any{
		"/v1/predict":       one,
		"/v1/predict/batch": api.BatchRequest{Requests: []api.PredictRequest{one}},
		"/v1/allocate": api.AllocateRequest{
			Job: one.Job, Env: one.Env, Essential: one.Essential, Optional: one.Optional,
			MinScaleOut: 2, MaxScaleOut: 16, DeadlineSec: 900, CostPerNodeHour: 0.5,
		},
		"/v1/observe": api.ObserveRequest{PredictRequest: one, RuntimeSec: 55},
	} {
		out[route], _ = json.Marshal(v)
	}
	return out
}

// TestWireParityAnswers: what the routes answer when nothing is wrong
// with the server — results, cache hits, per-item batch errors, 202s —
// and the request-level rejections of the envelope, robustness and
// trailing-data tables.
func TestWireParityAnswers(t *testing.T) {
	p := newParityPair(t, parityConfig{})
	valid := parityBodies(4)

	p.post(t, "computed", "/v1/predict", valid["/v1/predict"], http.StatusOK)
	p.post(t, "cached", "/v1/predict", valid["/v1/predict"], http.StatusOK)
	bad := apiRequest(serve.ModelKey{Job: "sort", Env: "c3o"}, -3)
	items, _ := json.Marshal(api.BatchRequest{Requests: []api.PredictRequest{
		apiRequest(serve.ModelKey{Job: "sort", Env: "c3o"}, 2), {Env: "no job"}, bad,
		apiRequest(serve.ModelKey{Job: "grep", Env: "c3o"}, 4),
	}})
	p.post(t, "one malformed and one invalid item", "/v1/predict/batch", items, http.StatusOK)
	p.post(t, "invalid scale-out, in the body of a 200", "/v1/predict", mustJSON(bad), http.StatusOK)
	for _, empty := range []string{`{"requests":[]}`, `{}`, `{"requests":null}`} {
		p.post(t, "empty batch", "/v1/predict/batch", []byte(empty), http.StatusOK)
	}
	p.post(t, "allocation", "/v1/allocate", valid["/v1/allocate"], http.StatusOK)
	p.post(t, "no observer attached", "/v1/observe", valid["/v1/observe"], http.StatusServiceUnavailable)
	tooMany, _ := json.Marshal(api.BatchRequest{Requests: make([]api.PredictRequest, serve.MaxBatchRequests+1)})
	p.post(t, "more items than a batch may hold", "/v1/predict/batch", tooMany, http.StatusRequestEntityTooLarge)

	// Valid JSON prefix so the read runs into the body bound.
	huge := append([]byte(`{"job":"`), bytes.Repeat([]byte("x"), serve.MaxBodyBytes+16)...)
	huge = append(huge, '"', '}')
	for _, route := range parityRoutes {
		p.post(t, "malformed", route, []byte("{nope"), http.StatusBadRequest)
		p.post(t, "malformed, must not echo", route, []byte(`{"job": SECRET_TOKEN_XYZ}`), http.StatusBadRequest)
		p.post(t, "oversized", route, huge, http.StatusRequestEntityTooLarge)
		for _, tail := range []string{string(valid[route]), `{}`, ` junk`, `}`, `]`, `,`, `null`, "\n1"} {
			p.post(t, "trailing "+tail, route, append(bytes.Clone(valid[route]), tail...), http.StatusBadRequest)
		}
	}
	for _, route := range []string{"/v1/predict", "/v1/predict/batch", "/v1/allocate"} {
		p.post(t, "trailing whitespace", route, append(bytes.Clone(valid[route]), " \t\r\n"...), http.StatusOK)
	}
	for route, body := range map[string]string{
		"/v1/predict":  `{"env":"c3o","scale_out":2,"essential":[]}`,
		"/v1/allocate": `{"env":"c3o","min_scale_out":2,"max_scale_out":4,"deadline_sec":10,"cost_per_node_hour":1}`,
		"/v1/observe":  `{"env":"c3o","runtime_sec":5,"essential":[]}`,
	} {
		p.post(t, "missing job", route, []byte(body), http.StatusBadRequest)
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// TestWireParityObserve: accepted, refused by the observer, and out of
// the observer's capacity.
func TestWireParityObserve(t *testing.T) {
	p := newParityPair(t, parityConfig{observer: func() serve.Observer { return &countObserver{capacity: 2} }})
	body := parityBodies(4)["/v1/observe"]
	p.post(t, "accepted", "/v1/observe", body, http.StatusAccepted)
	p.post(t, "accepted, trailing whitespace", "/v1/observe", append(bytes.Clone(body), " \t\r\n"...), http.StatusAccepted)
	p.post(t, "refused by the observer", "/v1/observe",
		mustJSON(api.ObserveRequest{PredictRequest: apiRequest(serve.ModelKey{Job: "sort", Env: "c3o"}, 4), RuntimeSec: -1}), http.StatusBadRequest)
	p.post(t, "capacity exhausted", "/v1/observe", body, http.StatusTooManyRequests)
}

// TestWireParityModelNotFound: an unloadable model is a 404 on allocate
// and a per-request error on the predict routes.
func TestWireParityModelNotFound(t *testing.T) {
	p := newParityPair(t, parityConfig{noModels: true})
	valid := parityBodies(4)
	p.post(t, "no model", "/v1/allocate", valid["/v1/allocate"], http.StatusNotFound)
	p.post(t, "no model", "/v1/predict", valid["/v1/predict"], http.StatusOK)
	p.post(t, "no model", "/v1/predict/batch", valid["/v1/predict/batch"], http.StatusOK)
}

// TestWireParityRateLimited: a client out of tokens is answered 429 on
// every POST route before its body is looked at.
func TestWireParityRateLimited(t *testing.T) {
	// A bucket that never holds a whole token refuses every request with
	// the same retry hint, so the two sides' answers can be compared.
	p := newParityPair(t, parityConfig{limiter: &loadctl.LimiterConfig{Rate: 1, Burst: 0.5}})
	valid := parityBodies(4)
	for _, route := range parityRoutes {
		p.post(t, "out of tokens", route, valid[route], http.StatusTooManyRequests)
		p.post(t, "out of tokens, malformed body", route, []byte("{nope"), http.StatusTooManyRequests)
	}
	p.same(t, "not rate limited", http.MethodGet, "/healthz", nil, nil, http.StatusOK)
}

// TestWireParityDeadline: a request whose X-Deadline-Ms budget runs out
// while it queues at the gate is answered 504 on every POST route.
func TestWireParityDeadline(t *testing.T) {
	p := newParityPair(t, parityConfig{gate: &loadctl.GateConfig{MaxInFlight: 1, MaxQueue: 8, MaxWait: 10 * time.Second}})
	for _, side := range p {
		if !side.gate.TryAcquire() {
			t.Fatalf("could not occupy the %s's gate", side.name)
		}
		defer side.gate.Release()
	}
	valid := parityBodies(4)
	for _, route := range parityRoutes {
		p.same(t, "out of budget while queued", http.MethodPost, route, valid[route],
			map[string]string{api.DeadlineHeader: "20"}, http.StatusGatewayTimeout)
	}
}

// TestWireParityOverloaded: with the slot held and the queue full the
// gate sheds, and every POST route answers 503 with a retry hint.
func TestWireParityOverloaded(t *testing.T) {
	p := newParityPair(t, parityConfig{gate: &loadctl.GateConfig{MaxInFlight: 1, MaxQueue: 1, MaxWait: 10 * time.Second}})
	valid := parityBodies(4)
	var parked sync.WaitGroup
	for _, side := range p {
		if !side.gate.TryAcquire() {
			t.Fatalf("could not occupy the %s's gate", side.name)
		}
		// One request parks in the queue until the slot is released.
		parked.Add(1)
		go func() {
			defer parked.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(valid["/v1/predict"]))
			side.h.ServeHTTP(httptest.NewRecorder(), req)
		}()
		waitFor(t, 2*time.Second, side.name+"'s queue to fill", func() bool { return side.gate.Stats().Waiting == 1 })
	}
	for _, route := range parityRoutes {
		p.post(t, "slot held, queue full", route, valid[route], http.StatusServiceUnavailable)
	}
	for _, side := range p {
		side.gate.Release()
	}
	parked.Wait()
}

// TestWireParityDrain: /healthz flips to 503 with a retry hint while
// draining, and back.
func TestWireParityDrain(t *testing.T) {
	p := newParityPair(t, parityConfig{})
	p.same(t, "serving", http.MethodGet, "/healthz", nil, nil, http.StatusOK)
	for _, side := range p {
		side.draining(true)
	}
	p.same(t, "draining", http.MethodGet, "/healthz", nil, nil, http.StatusServiceUnavailable)
	for _, side := range p {
		side.draining(false)
	}
	p.same(t, "serving again", http.MethodGet, "/healthz", nil, nil, http.StatusOK)
}
