package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/loadctl"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/stats_wire.golden from the current code")

const wireGolden = "testdata/stats_wire.golden"

// TestStatsWireShape pins the GET /v1/stats body of three deployments
// after a fixed call sequence: a bare service, a service with load
// control, a durable store, a lifecycle controller and observability
// attached, and a two-shard cluster. Every leaf of the body is listed
// by its path, so a key that appears, vanishes (omitempty included) or
// moves fails the test, as does any integer counter that changes. The
// float means and quantiles (the "_usec" keys) are timings: only their
// presence is pinned.
func TestStatsWireShape(t *testing.T) {
	var got strings.Builder
	for _, setup := range []struct {
		name string
		body func(t *testing.T) []byte
	}{
		{"bare", bareServiceStats},
		{"attached", attachedServiceStats},
		{"cluster", clusterStats},
	} {
		fmt.Fprintf(&got, "# %s\n", setup.name)
		for _, line := range flattenStats(t, setup.body(t)) {
			fmt.Fprintln(&got, line)
		}
	}
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(wireGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatalf("reading %s (run with -update to create it): %v", wireGolden, err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	inGot := map[string]bool{}
	for _, l := range gotLines {
		inGot[l] = true
	}
	inWant := map[string]bool{}
	for _, l := range wantLines {
		inWant[l] = true
	}
	for _, l := range wantLines {
		if !inGot[l] {
			t.Errorf("missing: %s", l)
		}
	}
	for _, l := range gotLines {
		if !inWant[l] {
			t.Errorf("unexpected: %s", l)
		}
	}
	if !t.Failed() {
		t.Errorf("/v1/stats lines reordered:\n%s", got.String())
	}
}

// flattenStats lists every leaf of a stats body as "path value", paths
// sorted. A "_usec" leaf reads "<float>" whatever its value.
func flattenStats(t *testing.T, body []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decoding stats %s: %v", body, err)
	}
	var out []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				walk(path+"."+k, e)
			}
		case []any:
			for i, e := range x {
				walk(fmt.Sprintf("%s[%d]", path, i), e)
			}
		default:
			val := fmt.Sprint(x)
			if strings.HasSuffix(path, "_usec") {
				val = "<float>"
			}
			out = append(out, path+" "+val)
		}
	}
	walk("", v)
	sort.Strings(out)
	return out
}

// wireCall sends one request to h with client key client (empty for
// none) and fails the test unless it is answered status.
func wireCall(t *testing.T, h http.Handler, route, client string, body any, status int) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(raw))
	if client != "" {
		r.Header.Set(api.ClientKeyHeader, client)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != status {
		t.Fatalf("POST %s (client %q): status %d, want %d: %s", route, client, w.Code, status, w.Body)
	}
}

// getStats reads GET /v1/stats from h.
func getStats(t *testing.T, h http.Handler) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d: %s", w.Code, w.Body)
	}
	return w.Body.Bytes()
}

func wireAllocate(key serve.ModelKey, deadlineSec float64) api.AllocateRequest {
	p := apiRequest(key, 2)
	return api.AllocateRequest{
		Job: key.Job, Env: key.Env, Essential: p.Essential, Optional: p.Optional,
		MinScaleOut: 2, MaxScaleOut: 12, Step: 2,
		DeadlineSec: deadlineSec, CostPerNodeHour: 1,
	}
}

func wireObserve(key serve.ModelKey, scaleOut int) api.ObserveRequest {
	return api.ObserveRequest{PredictRequest: apiRequest(key, scaleOut), RuntimeSec: 40 + 300/float64(scaleOut)}
}

func wireBatch(reqs ...api.PredictRequest) api.BatchRequest { return api.BatchRequest{Requests: reqs} }

func bareServiceStats(t *testing.T) []byte {
	svc := serve.NewService(func(key serve.ModelKey) (*core.Model, error) {
		if key.Job == "missing" {
			return nil, os.ErrNotExist
		}
		return testModel(t), nil
	}, serve.Options{})
	h := svc.Handler()
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	wireCall(t, h, "/v1/predict", "", apiRequest(key, 4), http.StatusOK)
	wireCall(t, h, "/v1/predict", "", apiRequest(key, 4), http.StatusOK)
	wireCall(t, h, "/v1/predict/batch", "", wireBatch(apiRequest(key, 4), apiRequest(key, 6), apiRequest(key, 6)), http.StatusOK)
	wireCall(t, h, "/v1/allocate", "", wireAllocate(key, 1e6), http.StatusOK)
	wireCall(t, h, "/v1/allocate", "", wireAllocate(serve.ModelKey{Job: "missing", Env: "c3o"}, 1e6), http.StatusNotFound)
	return getStats(t, h)
}

// durableNode is a store-backed service and lifecycle controller over
// dir, wired as the serve command wires one shard.
func durableNode(t *testing.T, dir string) (*store.Store, *serve.Service, *lifecycle.Controller) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	load := func(serve.ModelKey) (*core.Model, error) { return testModel(t), nil }
	svc := serve.NewService(load, serve.Options{})
	svc.Registry().SetVersionedLoader(serve.CheckpointLoader(load, st))
	svc.AttachStore(st)
	ctl := lifecycle.New(svc.Registry(), lifecycle.Config{
		MinSamples: 4,
		Interval:   time.Hour, // RunOnce drives the test
		Workers:    1,
		Finetune:   core.FinetuneOptions{Strategy: core.StrategyPartialUnfreeze, MaxEpochs: 20, Patience: 20},
		Log:        st,
		Checkpoint: st,
	})
	svc.AttachObserver(ctl)
	return st, svc, ctl
}

func attachedServiceStats(t *testing.T) []byte {
	dir := t.TempDir()
	key := serve.ModelKey{Job: "sort", Env: "c3o"}

	// A history: four observations digested into version 2 and
	// checkpointed, two more pending, then a restart. After it the four
	// pending observations are digested into version 3.
	st, svc, ctl := durableNode(t, dir)
	for x := 2; x <= 12; x += 2 {
		obsReq := wireObserve(key, x)
		req, err := serve.ToRequest(obsReq.PredictRequest)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Observe(context.Background(), req.Key, req.Query, obsReq.RuntimeSec); err != nil {
			t.Fatalf("Observe: %v", err)
		}
		if x == 8 {
			if n := ctl.RunOnce(); n != 1 {
				t.Fatalf("RunOnce swapped %d models, want 1", n)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, svc, ctl = durableNode(t, dir)
	defer st.Close()
	err := st.Replay(store.ReplayHandler{
		Observation: func(job, env string, s core.Sample, at time.Time) {
			ctl.Restore(serve.ModelKey{Job: job, Env: env}, s, at)
		},
		Digest: func(job, env string, through int, at time.Time) {
			ctl.RestoreDigest(serve.ModelKey{Job: job, Env: env}, through)
		},
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	svc.AttachLoadControl(serve.LoadControl{
		Limiter: loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e-9, Burst: 1, MaxClients: 4}),
		Gate:    loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 4, MaxQueue: 4, MaxWait: time.Second}),
	})
	o := &serve.Observability{
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewTracer(obs.TracerOptions{SampleEvery: 1}),
	}
	o.Tracer.RegisterMetrics(o.Metrics, nil)
	svc.AttachObs(o, nil)

	// Each call comes from a client of its own; the limiter tracks the
	// last four, and the last client's second call is limited.
	h := svc.Handler()
	wireCall(t, h, "/v1/predict", "c1", apiRequest(key, 4), http.StatusOK)
	wireCall(t, h, "/v1/predict", "c2", apiRequest(key, 4), http.StatusOK)
	wireCall(t, h, "/v1/predict/batch", "c3", wireBatch(apiRequest(key, 4), apiRequest(key, 6), apiRequest(key, 6)), http.StatusOK)
	wireCall(t, h, "/v1/allocate", "c4", wireAllocate(key, 1e-3), http.StatusOK)
	wireCall(t, h, "/v1/observe", "c5", wireObserve(key, 3), http.StatusAccepted)
	wireCall(t, h, "/v1/observe", "c6", wireObserve(key, 5), http.StatusAccepted)
	wireCall(t, h, "/v1/predict", "c6", apiRequest(key, 4), http.StatusTooManyRequests)
	if n := ctl.RunOnce(); n != 1 {
		t.Fatalf("RunOnce swapped %d models, want 1", n)
	}
	svc.SetDraining(true)
	return getStats(t, h)
}

func clusterStats(t *testing.T) []byte {
	gates := []*loadctl.Gate{
		loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 4, MaxQueue: 4, MaxWait: time.Second}),
		loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 4, MaxQueue: 4, MaxWait: time.Second}),
	}
	c := newTestCluster(t, 2, gates, Options{
		Limiter: loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e-9, Burst: 1}),
	})
	attachTestObs(c, 1)
	k0, k1 := keyOwnedBy(t, c, 0), keyOwnedBy(t, c, 1)
	h := c.Handler()

	wireCall(t, h, "/v1/predict", "c1", apiRequest(k0, 4), http.StatusOK)
	wireCall(t, h, "/v1/predict", "c2", apiRequest(k0, 4), http.StatusOK)
	wireCall(t, h, "/v1/predict", "c3", apiRequest(k1, 4), http.StatusOK)
	wireCall(t, h, "/v1/predict/batch", "c4", wireBatch(apiRequest(k0, 6), apiRequest(k1, 6), apiRequest(k1, 8)), http.StatusOK)
	wireCall(t, h, "/v1/allocate", "c5", wireAllocate(k1, 1e6), http.StatusOK)
	wireCall(t, h, "/v1/predict", "c5", apiRequest(k1, 4), http.StatusTooManyRequests)

	wireCall(t, h, "/v1/predict/batch", "c6", wireBatch(apiRequest(k0, 10), apiRequest(k1, 10)), http.StatusOK)
	return getStats(t, h)
}
