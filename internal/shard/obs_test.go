package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/loadctl"
	"repro/internal/obs"
	"repro/internal/serve"
)

// attachTestObs wires one shared observability layer into the router
// and every shard, each shard under its own {shard="i"} label set —
// the same wiring `bellamy serve -shards N` performs.
func attachTestObs(c *Cluster, sampleEvery int) *serve.Observability {
	o := &serve.Observability{
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewTracer(obs.TracerOptions{SampleEvery: sampleEvery}),
	}
	obs.RegisterRuntimeMetrics(o.Metrics)
	o.Tracer.RegisterMetrics(o.Metrics, nil)
	c.AttachObs(o)
	for i := 0; i < c.Shards(); i++ {
		c.Node(i).Service.AttachObs(o, obs.Labels{"shard": strconv.Itoa(i)})
	}
	return o
}

// scrapePromText fetches /metrics and parses the exposition text with
// the same strictness as the obs package's own parser: every sample
// line must be `name{labels} value` with balanced quotes/braces and a
// preceding # TYPE for its family.
func scrapePromText(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)

	typed := map[string]bool{}
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, val := line[:idx], line[idx+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if strings.Count(key, `"`)%2 != 0 || strings.Count(key, "{") != strings.Count(key, "}") {
			t.Fatalf("unbalanced labels in %q", line)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		samples[key] = v
	}
	return samples
}

func TestClusterMetricsEndToEnd(t *testing.T) {
	c := newTestCluster(t, 2, nil, Options{})
	attachTestObs(c, 1)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	k0 := keyOwnedBy(t, c, 0)
	k1 := keyOwnedBy(t, c, 1)
	for _, k := range []serve.ModelKey{k0, k1} {
		if code, raw := postJSON(t, srv.URL+"/v1/predict", apiRequest(k, 4)); code != http.StatusOK {
			t.Fatalf("predict status %d: %s", code, raw)
		}
	}

	first := scrapePromText(t, srv.URL)
	for _, want := range []string{
		"bellamy_router_requests_total",
		`bellamy_predict_requests_total{shard="0"}`,
		`bellamy_predict_requests_total{shard="1"}`,
		"bellamy_traces_sampled_total",
		"go_goroutines",
	} {
		if _, ok := first[want]; !ok {
			t.Fatalf("scrape missing series %q", want)
		}
	}
	if first["bellamy_router_requests_total"] < 2 {
		t.Fatalf("router_requests_total = %v, want >= 2", first["bellamy_router_requests_total"])
	}
	if first[`bellamy_predict_requests_total{shard="0"}`] < 1 ||
		first[`bellamy_predict_requests_total{shard="1"}`] < 1 {
		t.Fatalf("per-shard predict counters = %v / %v, want >= 1 each",
			first[`bellamy_predict_requests_total{shard="0"}`],
			first[`bellamy_predict_requests_total{shard="1"}`])
	}

	// Counters are monotone across scrapes that bracket more traffic.
	if code, raw := postJSON(t, srv.URL+"/v1/predict", apiRequest(k0, 6)); code != http.StatusOK {
		t.Fatalf("predict status %d: %s", code, raw)
	}
	second := scrapePromText(t, srv.URL)
	for key, v := range first {
		if strings.Contains(key, "_total") && second[key] < v {
			t.Fatalf("counter %s went backwards: %v -> %v", key, v, second[key])
		}
	}
	if second["bellamy_router_requests_total"] <= first["bellamy_router_requests_total"] {
		t.Fatal("router_requests_total did not advance")
	}
}

func TestClusterStatsCarriesObsBlock(t *testing.T) {
	c := newTestCluster(t, 2, nil, Options{})
	attachTestObs(c, 1)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	k0 := keyOwnedBy(t, c, 0)
	if code, raw := postJSON(t, srv.URL+"/v1/predict", apiRequest(k0, 4)); code != http.StatusOK {
		t.Fatalf("predict status %d: %s", code, raw)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	var st api.ClusterStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.SchemaVersion != api.StatsSchemaVersion {
		t.Fatalf("schema %d, want %d", st.SchemaVersion, api.StatsSchemaVersion)
	}
	for _, sh := range st.Shards {
		if sh.Stats.SchemaVersion != api.StatsSchemaVersion {
			t.Fatalf("shard %d schema %d, want %d", sh.ID, sh.Stats.SchemaVersion, api.StatsSchemaVersion)
		}
		if sh.Stats.Obs == nil {
			t.Fatalf("shard %d stats missing obs block", sh.ID)
		}
		if sh.Stats.Obs.MetricSeries == 0 {
			t.Fatalf("shard %d obs block reports 0 metric series", sh.ID)
		}
	}
	// The shard that served the prediction observed its latency.
	owner := st.Shards[c.Owner(k0.Job, k0.Env)]
	if owner.Stats.Obs.LatencyP99Usec <= 0 {
		t.Fatalf("owner obs latency p99 = %v, want > 0", owner.Stats.Obs.LatencyP99Usec)
	}
}

// TestClusterTraceFanOutPropagation: on every POST route of the sharded
// surface a trace is echoed, retained, and shows the pipeline's stages
// with one shard_route span per shard touched — two for a batch that
// fans out — under which the shard's own gate_wait nests. A request out
// of budget at a shard's gate is answered 504 with the spans so far.
func TestClusterTraceFanOutPropagation(t *testing.T) {
	gates := make([]*loadctl.Gate, 4)
	for i := range gates {
		gates[i] = loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 1, MaxWait: 5 * time.Second})
	}
	c := newTestCluster(t, 4, gates, Options{})
	for i := 0; i < c.Shards(); i++ {
		c.Node(i).Service.AttachObserver(&countObserver{})
	}
	attachTestObs(c, 1)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	k0 := keyOwnedBy(t, c, 0)
	k2 := keyOwnedBy(t, c, 2)
	one := apiRequest(k0, 2)
	allocate := api.AllocateRequest{
		Job: one.Job, Env: one.Env, Essential: one.Essential, Optional: one.Optional,
		MinScaleOut: 2, MaxScaleOut: 8, DeadlineSec: 900, CostPerNodeHour: 1,
	}

	post := func(route string, body any, header map[string]string) (*http.Response, []byte) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		req, err := http.NewRequest("POST", srv.URL+route, bytes.NewReader(b))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range header {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", route, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	for _, tc := range []struct {
		route  string
		body   any
		status int
		shards []int    // the shards whose shard_route spans must appear
		stages []string // beside ratelimit, decode, shard_route, gate_wait and encode
	}{
		{"/v1/predict", one, http.StatusOK, []int{0}, []string{obs.StageClassify, obs.StageRegistryLoad, obs.StagePredict}},
		{"/v1/predict/batch", api.BatchRequest{Requests: []api.PredictRequest{apiRequest(k0, 4), apiRequest(k2, 4)}},
			http.StatusOK, []int{0, 2}, []string{obs.StagePredict}},
		{"/v1/allocate", allocate, http.StatusOK, []int{0}, []string{obs.StageAllocate}},
		{"/v1/observe", api.ObserveRequest{PredictRequest: one, RuntimeSec: 60}, http.StatusAccepted, []int{0}, []string{obs.StageObserve}},
	} {
		traceID := "fanout-trace-" + tc.route
		resp, raw := post(tc.route, tc.body, map[string]string{api.TraceIDHeader: traceID})
		if resp.StatusCode != tc.status {
			t.Fatalf("%s status %d, want %d: %s", tc.route, resp.StatusCode, tc.status, raw)
		}
		if got := resp.Header.Get(api.TraceIDHeader); got != traceID {
			t.Fatalf("%s trace ID echo = %q, want %q", tc.route, got, traceID)
		}

		// The trace surfaces in /v1/debug/slow with one shard_route span per
		// shard the request touched, each tagged with its shard's ID.
		dresp, err := http.Get(srv.URL + "/v1/debug/slow")
		if err != nil {
			t.Fatalf("GET debug/slow: %v", err)
		}
		var slow api.SlowTracesResponse
		err = json.NewDecoder(dresp.Body).Decode(&slow)
		dresp.Body.Close()
		if err != nil {
			t.Fatalf("decode slow traces: %v", err)
		}
		var trace *api.TraceSummary
		for i := range slow.Traces {
			if slow.Traces[i].TraceID == traceID {
				trace = &slow.Traces[i]
			}
		}
		if trace == nil {
			t.Fatalf("%s trace not retained; have %d traces", tc.route, len(slow.Traces))
		}
		routes := map[int]api.SpanSummary{}
		stages := map[string]bool{}
		for _, sp := range trace.Spans {
			stages[sp.Name] = true
			if sp.Name == obs.StageShardRoute {
				routes[sp.Shard] = sp
			}
		}
		if len(routes) != len(tc.shards) {
			t.Fatalf("%s shard_route spans cover %d shards, want %d (spans %+v)", tc.route, len(routes), len(tc.shards), trace.Spans)
		}
		for _, sid := range tc.shards {
			if _, ok := routes[sid]; !ok {
				t.Fatalf("%s shard_route tags = %v, want shards %v", tc.route, routes, tc.shards)
			}
		}
		for _, want := range append([]string{
			obs.StageRateLimit, obs.StageDecode, obs.StageShardRoute, obs.StageGateWait, obs.StageEncode,
		}, tc.stages...) {
			if !stages[want] {
				t.Fatalf("%s trace missing stage %q (have %v)", tc.route, want, stages)
			}
		}
		// No classify span off the single-predict route: there is no cache
		// peek or cost class to decide.
		if tc.route != "/v1/predict" && stages[obs.StageClassify] {
			t.Fatalf("%s trace records a classify span (have %v)", tc.route, stages)
		}
		// Every gate_wait lies inside one of the shard_route spans.
		for _, sp := range trace.Spans {
			if sp.Name != obs.StageGateWait {
				continue
			}
			nested := false
			for _, rt := range routes {
				nested = nested || (sp.StartUsec >= rt.StartUsec && sp.StartUsec+sp.DurUsec <= rt.StartUsec+rt.DurUsec)
			}
			if !nested {
				t.Fatalf("%s gate_wait span %+v outside every shard_route span %+v", tc.route, sp, routes)
			}
		}
	}

	// Out of budget at the owner's gate: the 504 carries the trace.
	if !gates[0].TryAcquire() {
		t.Fatal("could not occupy shard 0's gate")
	}
	defer gates[0].Release()
	for _, tc := range []struct {
		route string
		body  any
	}{
		{"/v1/predict", apiRequest(k0, 12)},
		{"/v1/predict/batch", api.BatchRequest{Requests: []api.PredictRequest{apiRequest(k0, 12)}}},
		{"/v1/allocate", allocate},
		{"/v1/observe", api.ObserveRequest{PredictRequest: one, RuntimeSec: 60}},
	} {
		resp, raw := post(tc.route, tc.body, map[string]string{api.TraceIDHeader: "late-trace", api.DeadlineHeader: "30"})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s queued past its deadline: status %d, want 504: %s", tc.route, resp.StatusCode, raw)
		}
		e := decodeEnvelope(t, raw)
		stages := map[string]bool{}
		for _, sp := range e.Spans {
			stages[sp.Name] = true
		}
		if e.Code != api.CodeDeadlineExceeded || e.TraceID != "late-trace" ||
			!stages[obs.StageDecode] || !stages[obs.StageGateWait] || !stages[obs.StageShardRoute] {
			t.Fatalf("%s 504 envelope %+v, want the trace ID and the decode, shard_route and gate_wait spans", tc.route, e)
		}
	}
}
