package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/allocate"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/loadctl"
	"repro/internal/obs"
)

// attachServeObs wires a fresh registry and an always-sampling tracer
// into svc, returning the layer for direct inspection.
func attachServeObs(svc *Service) *Observability {
	o := &Observability{
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewTracer(obs.TracerOptions{SampleEvery: 1}),
	}
	obs.RegisterRuntimeMetrics(o.Metrics)
	o.Tracer.RegisterMetrics(o.Metrics, nil)
	svc.AttachObs(o, nil)
	return o
}

// TestTracedRequestEndToEnd is the acceptance check of the tracing
// tier on the single-shard surface, for every POST route: a request
// carrying X-Trace-Id is echoed the same ID, shows up in GET
// /v1/debug/slow, and its spans tile the request — every pipeline stage
// is named and the stage durations sum to roughly the measured wall
// latency. A request that runs out of budget queued at the gate is
// answered 504 with its trace ID and the spans recorded until then.
func TestTracedRequestEndToEnd(t *testing.T) {
	const loadDelay = 20 * time.Millisecond
	for _, tc := range []struct {
		route      string
		body, late any // late: a request the result cache cannot answer
		status     int
		// The stages the route tiles into; every one must be present
		// exactly once, with no strays.
		want []string
		// tiles: a cold model load dominates the request, so the stage
		// durations must sum to nearly all of the wall time.
		tiles    bool
		requests int // bellamy_predict_requests_total afterwards
	}{
		{"/v1/predict", wireRequest(4, 10000), wireRequest(6, 10000), http.StatusOK, []string{
			obs.StageRateLimit, obs.StageDecode, obs.StageClassify,
			obs.StageGateWait, obs.StageRegistryLoad, obs.StagePredict, obs.StageEncode,
		}, true, 1},
		{"/v1/predict/batch", api.BatchRequest{Requests: []api.PredictRequest{wireRequest(4, 10000)}},
			api.BatchRequest{Requests: []api.PredictRequest{wireRequest(6, 10000)}}, http.StatusOK, []string{
				obs.StageRateLimit, obs.StageDecode, obs.StageGateWait, obs.StagePredict, obs.StageEncode,
			}, true, 1},
		{"/v1/allocate", wireAllocateRequest(900), wireAllocateRequest(900), http.StatusOK, []string{
			obs.StageRateLimit, obs.StageDecode, obs.StageGateWait, obs.StageAllocate, obs.StageEncode,
		}, true, 0},
		{"/v1/observe", wireObservation(4, 10000, 55), wireObservation(4, 10000, 55), http.StatusAccepted, []string{
			obs.StageRateLimit, obs.StageDecode, obs.StageGateWait, obs.StageObserve, obs.StageEncode,
		}, false, 0},
	} {
		t.Run(tc.route, func(t *testing.T) {
			cl := &countingLoader{t: t}
			loader := func(key ModelKey) (*core.Model, error) {
				time.Sleep(loadDelay) // make the model load dominate the trace
				return cl.load(key)
			}
			lim := loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e9, Burst: 1e9})
			gate := loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 1, MaxWait: 5 * time.Second})
			srv, svc := newServerWith(t, loader, Options{}, LoadControl{Limiter: lim, Gate: gate})
			svc.AttachObserver(&recordingObserver{})
			attachServeObs(svc)

			const traceID = "e2e-trace-0042"
			body, _ := json.Marshal(tc.body)
			resp, raw := postRaw(t, srv.URL+tc.route, body, map[string]string{api.TraceIDHeader: traceID})
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			if got := resp.Header.Get(api.TraceIDHeader); got != traceID {
				t.Fatalf("echoed %s = %q, want %q", api.TraceIDHeader, got, traceID)
			}

			slowResp, err := http.Get(srv.URL + "/v1/debug/slow")
			if err != nil {
				t.Fatalf("GET /v1/debug/slow: %v", err)
			}
			defer slowResp.Body.Close()
			var slow api.SlowTracesResponse
			if err := json.NewDecoder(slowResp.Body).Decode(&slow); err != nil {
				t.Fatalf("decoding slow traces: %v", err)
			}
			if slow.SchemaVersion != api.StatsSchemaVersion {
				t.Fatalf("schema_version = %d, want %d", slow.SchemaVersion, api.StatsSchemaVersion)
			}
			var trace *api.TraceSummary
			for i := range slow.Traces {
				if slow.Traces[i].TraceID == traceID {
					trace = &slow.Traces[i]
					break
				}
			}
			if trace == nil {
				t.Fatalf("trace %q not retained in /v1/debug/slow (%d traces)", traceID, len(slow.Traces))
			}

			seen := map[string]int{}
			var sumUsec float64
			for _, sp := range trace.Spans {
				seen[sp.Name]++
				sumUsec += sp.DurUsec
			}
			for _, name := range tc.want {
				if seen[name] != 1 {
					t.Fatalf("stage %q recorded %d times, want 1 (spans: %+v)", name, seen[name], trace.Spans)
				}
			}
			if len(trace.Spans) != len(tc.want) {
				t.Fatalf("%d spans, want %d: %+v", len(trace.Spans), len(tc.want), trace.Spans)
			}
			if tc.tiles {
				// Stages are sequential and non-overlapping, so their
				// durations sum to at most the wall time — and with a 20ms
				// load dominating, to nearly all of it.
				if trace.WallUsec < float64(loadDelay.Microseconds()) {
					t.Fatalf("wall %.0fus shorter than the %v model load", trace.WallUsec, loadDelay)
				}
				if sumUsec > 1.05*trace.WallUsec || sumUsec < 0.8*trace.WallUsec {
					t.Fatalf("span durations sum to %.0fus vs wall %.0fus, want within [0.8, 1.05]x", sumUsec, trace.WallUsec)
				}
			}

			// The scrape surface sees the same request: predict counters
			// moved and the tracer accounted for the trace.
			metResp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				t.Fatalf("GET /metrics: %v", err)
			}
			defer metResp.Body.Close()
			metrics, _ := io.ReadAll(metResp.Body)
			for _, series := range []string{
				fmt.Sprintf("bellamy_predict_requests_total %d", tc.requests),
				"bellamy_traces_sampled_total 1",
				"bellamy_traces_finished_total 1",
			} {
				if !strings.Contains(string(metrics), series) {
					t.Fatalf("/metrics missing %q:\n%s", series, metrics)
				}
			}

			// Out of budget while queued behind a held slot: the 504 says
			// where the time went.
			if !gate.TryAcquire() {
				t.Fatal("could not occupy the gate")
			}
			defer gate.Release()
			body, _ = json.Marshal(tc.late)
			resp, raw = postRaw(t, srv.URL+tc.route, body, map[string]string{
				api.TraceIDHeader: "late-trace", api.DeadlineHeader: "30",
			})
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("queued past its deadline: status %d, want 504: %s", resp.StatusCode, raw)
			}
			e := decodeEnvelope(t, raw)
			stages := map[string]bool{}
			for _, sp := range e.Spans {
				stages[sp.Name] = true
			}
			if e.Code != api.CodeDeadlineExceeded || e.TraceID != "late-trace" ||
				!stages[obs.StageRateLimit] || !stages[obs.StageDecode] || !stages[obs.StageGateWait] || stages[obs.StageEncode] {
				t.Fatalf("504 envelope %+v, want the trace ID and the ratelimit, decode and gate_wait spans", e)
			}
		})
	}
}

// TestUntracedRequestHasNoHeader pins the sampling contract: without a
// client trace ID and with sampling effectively off, the response
// carries no X-Trace-Id and the hot path never starts a trace.
func TestUntracedRequestHasNoHeader(t *testing.T) {
	srv, svc := newTestServer(t)
	o := &Observability{
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewTracer(obs.TracerOptions{SampleEvery: 1 << 30}),
	}
	svc.AttachObs(o, nil)

	var out api.PredictResponse
	b, _ := json.Marshal(wireRequest(4, 10000))
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatalf("POST /v1/predict: %v", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := resp.Header.Get(api.TraceIDHeader); got != "" {
		t.Fatalf("unsampled request echoed trace ID %q, want none", got)
	}
	if sampled, _ := o.Tracer.Stats(); sampled != 0 {
		t.Fatalf("tracer sampled %d traces, want 0", sampled)
	}
}

// TestStatsCarriesObsBlock checks the schema-v3 stats surface: once an
// observability layer is attached, GET /v1/stats reports the obs block
// with live series and latency quantiles.
func TestStatsCarriesObsBlock(t *testing.T) {
	srv, svc := newTestServer(t)
	attachServeObs(svc)

	var warm api.PredictResponse
	postJSON(t, srv.URL+"/v1/predict", wireRequest(4, 10000), &warm)

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st api.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.SchemaVersion != api.StatsSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", st.SchemaVersion, api.StatsSchemaVersion)
	}
	if st.Obs == nil {
		t.Fatal("stats missing obs block with observability attached")
	}
	if st.Obs.MetricSeries == 0 {
		t.Fatal("obs block reports zero metric series")
	}
	if st.Obs.TracesSampled < 1 || st.Obs.LatencyP99Usec <= 0 {
		t.Fatalf("obs block = %+v, want sampled traces and positive p99", st.Obs)
	}
}

// TestWarmPredictZeroAllocWithObs pins the ISSUE's hot-path bound with
// the full observability layer attached and EVERY request traced: the
// warm cache-hit predict — limiter, cache peek, traced predict, trace
// finish — stays allocation-free. Metrics ride the counters the path
// already increments and traces live in reused fixed-size objects, so
// instrumentation adds no per-request garbage.
func TestWarmPredictZeroAllocWithObs(t *testing.T) {
	cl := &countingLoader{t: t}
	svc := NewService(cl.load, Options{})
	lim := loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e9, Burst: 1e9})
	gate := loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 4})
	svc.AttachLoadControl(LoadControl{Limiter: lim, Gate: gate})
	o := attachServeObs(svc)

	key := ModelKey{Job: "sort", Env: "c3o"}
	q := testQuery(4, 4096)
	ctx := context.Background()
	if r := svc.Predict(ctx, key, q); r.Err != nil {
		t.Fatalf("cold Predict: %v", r.Err)
	}
	// Saturate the slow ring with warm-up traces so the timed runs hit
	// its steady state (floor set, insert-or-reject via one atomic load).
	for i := 0; i < 64; i++ {
		tr := o.Tracer.StartRequest("")
		svc.PredictTraced(ctx, key, q, tr)
		o.Tracer.Finish(tr)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if ok, _ := lim.Allow("10.0.0.1", time.Now()); !ok {
			t.Fatal("limiter denied")
		}
		if _, ok := svc.lookup(key, q); !ok {
			t.Fatal("expected a cached result")
		}
		tr := o.Tracer.StartRequest("")
		if tr == nil {
			t.Fatal("SampleEvery=1 tracer skipped a request")
		}
		r := svc.PredictTraced(ctx, key, q, tr)
		o.Tracer.Finish(tr)
		if r.Err != nil || !r.Cached {
			t.Fatalf("warm Predict = %+v", r)
		}
	}); allocs != 0 {
		t.Fatalf("warm traced predict allocs/op = %v, want 0", allocs)
	}
}

// BenchmarkPredictObsOverhead measures what the observability layer
// costs the warm predict path:
//
//   - uninstrumented: no obs attached, the nil-trace fast path.
//   - instrumented: metrics registered and the tracer at its production
//     default sampling (1 in 64) — the steady-state per-request cost of
//     running with obs on. CI gates this against uninstrumented with a
//     relative benchgate -speedup floor of 0.95x (at most ~5% overhead
//     on any hardware, since both sides run on the same machine).
//   - traced: every request traced (SampleEvery=1), the worst case a
//     request paying full span recording sees. Informational, not
//     gated: per-span clock reads put its cost at the mercy of the
//     runner's timer hardware.
func BenchmarkPredictObsOverhead(b *testing.B) {
	run := func(b *testing.B, sampleEvery int) {
		cl := &countingLoader{t: b}
		svc := NewService(cl.load, Options{})
		var tracer *obs.Tracer
		if sampleEvery > 0 {
			o := &Observability{
				Metrics: obs.NewRegistry(),
				Tracer:  obs.NewTracer(obs.TracerOptions{SampleEvery: sampleEvery}),
			}
			obs.RegisterRuntimeMetrics(o.Metrics)
			o.Tracer.RegisterMetrics(o.Metrics, nil)
			svc.AttachObs(o, nil)
			tracer = o.Tracer
		}
		key := ModelKey{Job: "sort", Env: "c3o"}
		q := testQuery(4, 4096)
		ctx := context.Background()
		if r := svc.Predict(ctx, key, q); r.Err != nil {
			b.Fatalf("cold Predict: %v", r.Err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := tracer.StartRequest("") // nil tracer -> nil trace
			r := svc.PredictTraced(ctx, key, q, tr)
			tracer.Finish(tr)
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.Run("uninstrumented", func(b *testing.B) { run(b, 0) })
	b.Run("instrumented", func(b *testing.B) { run(b, 64) })
	b.Run("traced", func(b *testing.B) { run(b, 1) })
}

// TestInferRowAndCacheByteMetrics: /metrics says how much encoder work
// the traffic let serving skip — a 64-candidate allocation sweep of one
// context carries 384 property values and encodes 6 rows, a single
// prediction as many rows as it has values — and how much heap the
// result cache holds.
func TestInferRowAndCacheByteMetrics(t *testing.T) {
	// Serving runs in float32 only; the case keeps its float64=false name.
	t.Run("float64=false", func(t *testing.T) {
		cl := &countingLoader{t: t}
		svc := NewService(cl.load, Options{})
		o := attachServeObs(svc)
		key := ModelKey{Job: "sort", Env: "c3o"}
		q := testQuery(4, 10000)
		if _, err := svc.Allocate(context.Background(), key, allocate.Request{
			MinScaleOut: 1, MaxScaleOut: 64, DeadlineSec: 1e6,
			Essential: q.Essential, Optional: q.Optional,
		}); err != nil {
			t.Fatal(err)
		}
		if r := svc.Predict(context.Background(), key, q); r.Err != nil {
			t.Fatal(r.Err)
		}
		rec := httptest.NewRecorder()
		o.Metrics.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, series := range []string{
			"bellamy_infer_property_rows_total 390",
			"bellamy_infer_distinct_rows_total 12",
			fmt.Sprintf("bellamy_result_cache_bytes %d", svc.results.bytes()),
		} {
			if !strings.Contains(rec.Body.String(), series+"\n") {
				t.Fatalf("/metrics missing %q:\n%s", series, rec.Body)
			}
		}
		if min := 4*2*DefaultResultCap + entryBytes + len(fingerprint(key, q)); svc.results.bytes() < min {
			t.Fatalf("result cache reports %d B, less than its index, one entry and one key (%d)", svc.results.bytes(), min)
		}
	})
}
