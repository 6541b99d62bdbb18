package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/loadctl"
	"repro/internal/serve"
)

func apiRequest(key serve.ModelKey, scaleOut int) api.PredictRequest {
	return api.PredictRequest{
		Job:      key.Job,
		Env:      key.Env,
		ScaleOut: scaleOut,
		Essential: []api.Property{
			{Name: "dataset_size_mb", Value: "10000"},
			{Name: "dataset_characteristics", Value: "uniform"},
			{Name: "job_parameters", Value: "--iterations 100"},
			{Name: "node_type", Value: "m4.xlarge"},
		},
		Optional: []api.Property{
			{Name: "memory_mb", Value: "16384"},
			{Name: "cpu_cores", Value: "4"},
		},
	}
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func decodeEnvelope(t *testing.T, raw []byte) *api.Error {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
		t.Fatalf("body %q is not an error envelope (err %v)", raw, err)
	}
	return env.Error
}

func TestClusterHTTPEndToEnd(t *testing.T) {
	c := newTestCluster(t, 2, nil, Options{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	k0 := keyOwnedBy(t, c, 0)
	k1 := keyOwnedBy(t, c, 1)

	// Predict routes to the owner and answers the standard DTO.
	code, raw := postJSON(t, srv.URL+"/v1/predict", apiRequest(k1, 4))
	if code != http.StatusOK {
		t.Fatalf("predict status %d: %s", code, raw)
	}
	var pr api.PredictResponse
	if err := json.Unmarshal(raw, &pr); err != nil || pr.Error != nil || pr.RuntimeSec <= 0 {
		t.Fatalf("predict response %s (err %v)", raw, err)
	}
	if _, ok := c.Node(1).Service.Registry().ResidentVersions()[k1]; !ok {
		t.Fatalf("model %v not resident on its owner after predict", k1)
	}

	// Batch across both shards merges in order; a malformed item fails
	// in place without failing the batch.
	batch := api.BatchRequest{Requests: []api.PredictRequest{
		apiRequest(k0, 2), apiRequest(k1, 4), {Job: ""}, apiRequest(k0, 6),
	}}
	code, raw = postJSON(t, srv.URL+"/v1/predict/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, raw)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	if len(br.Responses) != 4 || br.Failed != 1 {
		t.Fatalf("batch = %d responses, %d failed, want 4/1", len(br.Responses), br.Failed)
	}
	for _, i := range []int{0, 1, 3} {
		if br.Responses[i].Error != nil {
			t.Fatalf("batch item %d failed: %+v", i, br.Responses[i].Error)
		}
	}
	if br.Responses[2].Error == nil || br.Responses[2].Error.Code != api.CodeBadRequest {
		t.Fatalf("malformed item error = %+v, want %s", br.Responses[2].Error, api.CodeBadRequest)
	}

	// Stats: versioned cluster schema with one block per shard.
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
	if st.SchemaVersion != api.StatsSchemaVersion || len(st.Shards) != 2 {
		t.Fatalf("stats schema %d, %d shards, want %d/2", st.SchemaVersion, len(st.Shards), api.StatsSchemaVersion)
	}
	if st.Router.Requests == 0 {
		t.Fatal("router requests not counted")
	}

	// Topology names each shard's resident models.
	resp, err = http.Get(srv.URL + "/v1/shards")
	if err != nil {
		t.Fatalf("GET shards: %v", err)
	}
	var topo api.TopologyResponse
	err = json.NewDecoder(resp.Body).Decode(&topo)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode topology: %v", err)
	}
	if len(topo.Shards) != 2 || topo.VirtualNodes != DefaultVirtualNodes {
		t.Fatalf("topology = %+v", topo)
	}
	found := false
	for _, m := range topo.Shards[1].Models {
		if m.Job == k1.Job && m.Env == k1.Env {
			found = true
		}
	}
	if !found {
		t.Fatalf("topology shard 1 models %+v missing %v", topo.Shards[1].Models, k1)
	}
}

func TestClusterHTTPRateLimitAndDrain(t *testing.T) {
	limiter := loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1, Burst: 2})
	c := newTestCluster(t, 2, nil, Options{Limiter: limiter})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	k0 := keyOwnedBy(t, c, 0)
	limited := false
	for i := 0; i < 10; i++ {
		code, raw := postJSON(t, srv.URL+"/v1/predict", apiRequest(k0, 2+i))
		if code == http.StatusTooManyRequests {
			e := decodeEnvelope(t, raw)
			if e.Code != api.CodeRateLimited || e.RetryAfterMs <= 0 {
				t.Fatalf("429 envelope = %+v", e)
			}
			limited = true
			break
		}
	}
	if !limited {
		t.Fatal("burst of 10 never rate limited at burst 2")
	}
	if c.Stats().Router.RateLimited == 0 {
		t.Fatal("router rate-limited counter not incremented")
	}

	c.SetDraining(true)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d", resp.StatusCode)
	}
	if e := decodeEnvelope(t, buf.Bytes()); e.Code != api.CodeDraining {
		t.Fatalf("healthz envelope = %+v", e)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz missing Retry-After header")
	}
}

func TestClusterHTTPDeadline(t *testing.T) {
	// Saturate the owner shard's single-slot gate so the request queues
	// until its deadline budget lapses.
	gates := []*loadctl.Gate{
		loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 1, MaxQueue: 8, MaxWait: 10 * time.Second}),
		loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 1, MaxQueue: 8, MaxWait: 10 * time.Second}),
	}
	c := newTestCluster(t, 2, gates, Options{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	k0 := keyOwnedBy(t, c, 0)
	owner := c.Owner(k0.Job, k0.Env)
	if !gates[owner].TryAcquire() {
		t.Fatal("could not occupy the owner gate")
	}
	defer gates[owner].Release()

	b, _ := json.Marshal(apiRequest(k0, 4))
	req, err := http.NewRequest("POST", srv.URL+"/v1/predict", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set(api.DeadlineHeader, "30")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, buf.Bytes())
	}
	if e := decodeEnvelope(t, buf.Bytes()); e.Code != api.CodeDeadlineExceeded {
		t.Fatalf("envelope = %+v, want %s", e, api.CodeDeadlineExceeded)
	}

	// A budget past the cap reaches the other shard's observer under
	// serve.DefaultMaxDeadline.
	k1 := keyOwnedBy(t, c, 1-owner)
	dl := deadlineObserver(make(chan time.Time, 1))
	c.Node(1 - owner).Service.AttachObserver(dl)
	ob, _ := json.Marshal(api.ObserveRequest{PredictRequest: apiRequest(k1, 4), RuntimeSec: 60})
	req, err = http.NewRequest("POST", srv.URL+"/v1/observe", bytes.NewReader(ob))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set(api.DeadlineHeader, strconv.FormatInt((serve.DefaultMaxDeadline+time.Hour).Milliseconds(), 10))
	before := time.Now()
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe status %d, want 202", resp.StatusCode)
	}
	if d := <-dl; d.Before(before.Add(serve.DefaultMaxDeadline)) || d.After(time.Now().Add(serve.DefaultMaxDeadline)) {
		t.Fatalf("observe ran under deadline %v from now, want serve.DefaultMaxDeadline (%v)", time.Until(d), serve.DefaultMaxDeadline)
	}
}

// deadlineObserver passes on the deadline each observation's context
// carries.
type deadlineObserver chan time.Time

func (o deadlineObserver) Observe(ctx context.Context, _ serve.ModelKey, _ core.Query, _ float64) error {
	d, _ := ctx.Deadline()
	o <- d
	return nil
}

// TestClusterHTTPTrailingDataIs400: a second value or junk after the
// JSON body is malformed on every POST route of the sharded surface, as
// on the single-shard one.
func TestClusterHTTPTrailingDataIs400(t *testing.T) {
	c := newTestCluster(t, 2, nil, Options{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	one, _ := json.Marshal(apiRequest(keyOwnedBy(t, c, 1), 4))
	batch := `{"requests":[` + string(one) + `]}`
	for _, tc := range []struct{ route, body string }{
		{"/v1/predict", string(one) + string(one)},
		{"/v1/predict", string(one) + " junk"},
		{"/v1/predict", string(one) + "}"},
		{"/v1/predict/batch", batch + batch},
		{"/v1/predict/batch", batch + "\n]"},
		{"/v1/allocate", `{"job":"sort","env":"env-0","min_scale_out":2,"max_scale_out":4,"deadline_sec":900,"cost_per_node_hour":1}{}`},
		{"/v1/observe", `{"job":"sort","env":"env-0","scale_out":4,"runtime_sec":60} 1`},
	} {
		resp, err := http.Post(srv.URL+tc.route, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.route, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %.40q...: status %d, want 400: %s", tc.route, tc.body, resp.StatusCode, buf.Bytes())
		}
		if e := decodeEnvelope(t, buf.Bytes()); e.Code != api.CodeBadRequest {
			t.Fatalf("%s: envelope %+v, want %s", tc.route, e, api.CodeBadRequest)
		}
	}
	// Trailing whitespace is not data.
	if code, raw := postJSON(t, srv.URL+"/v1/predict", json.RawMessage(string(one)+" \r\n\t")); code != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d: %s", code, raw)
	}
}

// TestColdBatchAllocBudget is the sharded twin of the serve test of the
// same name: a cold 256-item batch through the 2-shard handler — the
// decode into reused scratch plus the router's fan-out and both shards'
// batches. It measures 90 KB in 551 objects at GOMAXPROCS 2 with
// collection on: the fan-out's index lists, sub-batches and per-shard
// answers come from a free list, so two shards cost a batch 13 objects
// more than one service. The object ceiling leaves a tenth of room; the
// byte ceiling covers -race, where the standard library's sync.Pools
// drop a quarter of what they are given (measured up to 143 KB in 570
// objects).
func TestColdBatchAllocBudget(t *testing.T) {
	const (
		items, warm, measured = 256, 4, 16
		maxBytes, maxObjects  = 160 << 10, 610
	)
	c := newTestCluster(t, 2, nil, Options{})
	h := c.Handler()
	keys := []serve.ModelKey{keyOwnedBy(t, c, 0), keyOwnedBy(t, c, 1)}
	bodies := make([][]byte, warm+measured)
	for b := range bodies {
		in := api.BatchRequest{Requests: make([]api.PredictRequest, items)}
		for i := range in.Requests {
			// Never-cached: every (batch, item) has its own dataset size.
			r := apiRequest(keys[i%2], 2+2*(i%6))
			r.Essential[0].Value = strconv.Itoa(4000 + b*items + i)
			in.Requests[i] = r
		}
		bodies[b], _ = json.Marshal(in)
	}
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch answered %d: %.200s", rec.Code, rec.Body.Bytes())
		}
	}
	for _, body := range bodies[:warm] { // load the models, fill the lists
		post(body)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range bodies[warm:] {
		post(body)
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / measured
	objectsPer := (after.Mallocs - before.Mallocs) / measured
	t.Logf("cold %d-item batch over 2 shards: %d B, %d objects per request", items, bytesPer, objectsPer)
	if bytesPer > maxBytes || objectsPer > maxObjects {
		t.Fatalf("cold %d-item batch over 2 shards allocates %d B in %d objects per request, budget %d B in %d",
			items, bytesPer, objectsPer, maxBytes, maxObjects)
	}
}

// TestClusterGateIsTheShardServices: a shard's gate is its service's, so
// what it admits and what bypasses it show up where that shard's
// counters are read — its /v1/stats block and its {shard="i"} series —
// and a service can hold only one.
func TestClusterGateIsTheShardServices(t *testing.T) {
	gates := []*loadctl.Gate{loadctl.NewGate(loadctl.GateConfig{}), loadctl.NewGate(loadctl.GateConfig{})}
	c := newTestCluster(t, 2, gates, Options{})
	attachTestObs(c, 1)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// One computed and one cached predict per shard.
	for i := 0; i < 2; i++ {
		for _, wantCached := range []bool{false, true} {
			code, raw := postJSON(t, srv.URL+"/v1/predict", apiRequest(keyOwnedBy(t, c, i), 4))
			var pr api.PredictResponse
			if err := json.Unmarshal(raw, &pr); code != http.StatusOK || err != nil || pr.Cached != wantCached {
				t.Fatalf("shard %d predict: status %d, %s, want cached=%v", i, code, raw, wantCached)
			}
		}
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
	metrics := scrapePromText(t, srv.URL)
	for i, sh := range st.Shards {
		lc := sh.Stats.LoadCtl
		if lc == nil || lc.Admitted < 1 || lc.GateBypassed < 1 {
			t.Fatalf("shard %d load_ctl = %+v, want >= 1 admitted and >= 1 bypassed", i, lc)
		}
		if gs := gates[i].Stats(); gs.Admitted != lc.Admitted {
			t.Fatalf("shard %d reports %d admitted, its gate %d", i, lc.Admitted, gs.Admitted)
		}
		for _, series := range []string{"bellamy_gate_admitted_total", "bellamy_gate_bypassed_total"} {
			if key := series + `{shard="` + strconv.Itoa(i) + `"}`; metrics[key] < 1 {
				t.Fatalf("%s = %v, want >= 1", key, metrics[key])
			}
		}
	}

	twice := c.Node(0).Service
	if _, err := New([]NodeConfig{{Service: twice, Gate: loadctl.NewGate(loadctl.GateConfig{})}}, Options{}); err == nil {
		t.Fatal("New accepted a gate for a service that already has one")
	}
}
