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

	"repro/internal/api"
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
		`bellamy_shard_up{shard="0"}`,
		`bellamy_shard_up{shard="1"}`,
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
	if first[`bellamy_shard_up{shard="0"}`] != 1 || first[`bellamy_shard_up{shard="1"}`] != 1 {
		t.Fatal("both shards should report up")
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

	// A shard marked down flips its up-gauge and the topology flag.
	c.MarkDown(1, true)
	third := scrapePromText(t, srv.URL)
	if third[`bellamy_shard_up{shard="1"}`] != 0 {
		t.Fatalf(`shard_up{shard="1"} = %v after MarkDown, want 0`, third[`bellamy_shard_up{shard="1"}`])
	}
	if third[`bellamy_shard_up{shard="0"}`] != 1 {
		t.Fatal("shard 0 should still be up")
	}
	resp, err := http.Get(srv.URL + "/v1/shards")
	if err != nil {
		t.Fatalf("GET shards: %v", err)
	}
	var topo api.TopologyResponse
	err = json.NewDecoder(resp.Body).Decode(&topo)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode topology: %v", err)
	}
	if !topo.Shards[1].Down || topo.Shards[0].Down {
		t.Fatalf("topology down flags = %+v", topo.Shards)
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

func TestClusterTraceFanOutPropagation(t *testing.T) {
	c := newTestCluster(t, 4, nil, Options{})
	attachTestObs(c, 1)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	k0 := keyOwnedBy(t, c, 0)
	k2 := keyOwnedBy(t, c, 2)

	batch := api.BatchRequest{Requests: []api.PredictRequest{
		apiRequest(k0, 2), apiRequest(k2, 4),
	}}
	b, err := json.Marshal(batch)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest("POST", srv.URL+"/v1/predict/batch", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.TraceIDHeader, "fanout-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.TraceIDHeader); got != "fanout-trace-1" {
		t.Fatalf("trace ID echo = %q, want %q", got, "fanout-trace-1")
	}

	// The trace surfaces in /v1/debug/slow with one shard_route span per
	// shard the batch touched, each tagged with its shard's ID.
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
		if slow.Traces[i].TraceID == "fanout-trace-1" {
			trace = &slow.Traces[i]
		}
	}
	if trace == nil {
		t.Fatalf("trace not retained; have %d traces", len(slow.Traces))
	}
	shards := map[int]bool{}
	stages := map[string]bool{}
	for _, sp := range trace.Spans {
		stages[sp.Name] = true
		if sp.Name == obs.StageShardRoute {
			shards[sp.Shard] = true
		}
	}
	if len(shards) < 2 {
		t.Fatalf("shard_route spans cover %d shards, want >= 2 (spans %+v)", len(shards), trace.Spans)
	}
	if !shards[0] || !shards[2] {
		t.Fatalf("shard_route tags = %v, want shards 0 and 2", shards)
	}
	// No classify span: a batch's items are converted under decode and
	// there is no cache peek or cost class to decide.
	for _, want := range []string{
		obs.StageRateLimit, obs.StageDecode,
		obs.StageShardRoute, obs.StagePredict, obs.StageEncode,
	} {
		if !stages[want] {
			t.Fatalf("trace missing stage %q (have %v)", want, stages)
		}
	}
	if stages[obs.StageClassify] {
		t.Fatalf("batch trace records a classify span (have %v)", stages)
	}
}
