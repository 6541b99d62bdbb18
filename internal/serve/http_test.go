package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

func newTestServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	cl := &countingLoader{t: t}
	svc := NewService(cl.load, Options{})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv, svc
}

func postJSON(t *testing.T, url string, body any, out any) int {
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
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode
}

func wireRequest(scaleOut, sizeMB int) api.PredictRequest {
	return api.PredictRequest{
		Job:      "sort",
		Env:      "c3o",
		ScaleOut: scaleOut,
		Essential: []api.Property{
			{Name: "dataset_size_mb", Value: fmt.Sprint(sizeMB)},
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

func TestHTTPPredict(t *testing.T) {
	srv, _ := newTestServer(t)

	var out api.PredictResponse
	code := postJSON(t, srv.URL+"/v1/predict", wireRequest(4, 10000), &out)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if out.Error != nil || out.RuntimeSec <= 0 {
		t.Fatalf("response = %+v, want positive runtime and no error", out)
	}
	// Second identical call is served from the result cache.
	var cached api.PredictResponse
	postJSON(t, srv.URL+"/v1/predict", wireRequest(4, 10000), &cached)
	if !cached.Cached || cached.RuntimeSec != out.RuntimeSec {
		t.Fatalf("second response = %+v, want cached copy of first", cached)
	}
}

func TestHTTPPredictBatch(t *testing.T) {
	srv, _ := newTestServer(t)

	bad := wireRequest(4, 10000)
	bad.Job = "" // malformed: rejected before it reaches the service
	in := api.BatchRequest{Requests: []api.PredictRequest{
		wireRequest(2, 10000), wireRequest(4, 10000), bad, wireRequest(-3, 10000),
	}}
	var out api.BatchResponse
	if code := postJSON(t, srv.URL+"/v1/predict/batch", in, &out); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if len(out.Responses) != 4 {
		t.Fatalf("%d responses, want 4", len(out.Responses))
	}
	for _, i := range []int{0, 1} {
		if out.Responses[i].Error != nil || out.Responses[i].RuntimeSec <= 0 {
			t.Fatalf("response %d = %+v, want success", i, out.Responses[i])
		}
	}
	for _, i := range []int{2, 3} {
		if out.Responses[i].Error == nil {
			t.Fatalf("response %d succeeded, want error", i)
		}
	}
}

func TestHTTPBatchTooLarge(t *testing.T) {
	srv, _ := newTestServer(t)
	in := api.BatchRequest{Requests: make([]api.PredictRequest, MaxBatchRequests+1)}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(srv.URL+"/v1/predict/batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestHTTPBadJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// recordingObserver accepts observations and exposes fixed lifecycle
// stats, standing in for the lifecycle controller in HTTP tests. A
// positive capacity rejects observations past it with the capacity
// sentinel, like the controller's distinct-key bound.
type recordingObserver struct {
	mu       sync.Mutex
	seen     []float64
	capacity int
}

func (o *recordingObserver) Observe(_ context.Context, key ModelKey, q core.Query, runtimeSec float64) error {
	if runtimeSec <= 0 {
		return fmt.Errorf("observed runtime %v must be positive", runtimeSec)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.capacity > 0 && len(o.seen) >= o.capacity {
		return fmt.Errorf("observer full: %w", ErrObserveCapacity)
	}
	o.seen = append(o.seen, runtimeSec)
	return nil
}

func (o *recordingObserver) LifecycleStats() api.LifecycleStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return api.LifecycleStats{Observations: int64(len(o.seen))}
}

func wireObservation(scaleOut, sizeMB int, runtime float64) api.ObserveRequest {
	return api.ObserveRequest{PredictRequest: wireRequest(scaleOut, sizeMB), RuntimeSec: runtime}
}

func TestHTTPObserveDisabledWithoutObserver(t *testing.T) {
	srv, _ := newTestServer(t)
	var out api.ObserveResponse
	code := postJSON(t, srv.URL+"/v1/observe", wireObservation(4, 10000, 55), &out)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	if out.Accepted || out.Error == nil {
		t.Fatalf("response = %+v, want rejection with error", out)
	}
}

func TestHTTPObserve(t *testing.T) {
	srv, svc := newTestServer(t)
	obs := &recordingObserver{}
	svc.AttachObserver(obs)

	var out api.ObserveResponse
	code := postJSON(t, srv.URL+"/v1/observe", wireObservation(4, 10000, 55.5), &out)
	if code != http.StatusAccepted || !out.Accepted {
		t.Fatalf("status %d, accepted %v, want 202 accepted", code, out.Accepted)
	}
	if len(obs.seen) != 1 || obs.seen[0] != 55.5 {
		t.Fatalf("observer saw %v, want [55.5]", obs.seen)
	}

	// Invalid observation: rejected by the observer -> 400.
	var rej api.ObserveResponse
	code = postJSON(t, srv.URL+"/v1/observe", wireObservation(4, 10000, -1), &rej)
	if code != http.StatusBadRequest || rej.Accepted {
		t.Fatalf("status %d, accepted %v, want 400 rejection", code, rej.Accepted)
	}
	// Malformed request (missing job): rejected before the observer.
	bad := wireObservation(4, 10000, 10)
	bad.Job = ""
	code = postJSON(t, srv.URL+"/v1/observe", bad, &out)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if len(obs.seen) != 1 {
		t.Fatalf("observer saw %d observations, want 1 (invalid ones filtered)", len(obs.seen))
	}

	// Lifecycle counters surface in /v1/stats once an observer with
	// stats is attached.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var st api.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Lifecycle == nil || st.Lifecycle.Observations != 1 {
		t.Fatalf("stats lifecycle = %+v, want 1 observation", st.Lifecycle)
	}
}

// TestHTTPObserveCapacityIs429: a server-side capacity rejection is a
// retriable 429, not a 400 telling the client its request is bad.
func TestHTTPObserveCapacityIs429(t *testing.T) {
	srv, svc := newTestServer(t)
	svc.AttachObserver(&recordingObserver{capacity: 1})

	var out api.ObserveResponse
	if code := postJSON(t, srv.URL+"/v1/observe", wireObservation(4, 10000, 12), &out); code != http.StatusAccepted {
		t.Fatalf("status %d, want 202", code)
	}
	var rej api.ObserveResponse
	code := postJSON(t, srv.URL+"/v1/observe", wireObservation(6, 10000, 13), &rej)
	if code != http.StatusTooManyRequests || rej.Accepted {
		t.Fatalf("status %d, accepted %v, want 429 rejection", code, rej.Accepted)
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	srv, svc := newTestServer(t)

	svc.Predict(context.Background(), ModelKey{Job: "sort", Env: "c3o"}, testQuery(4, 10000))
	svc.Predict(context.Background(), ModelKey{Job: "sort", Env: "c3o"}, testQuery(4, 10000))

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var st api.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Requests != 2 || st.ResultHits != 1 || st.ResultMisses != 1 || st.ModelLoads != 1 {
		t.Fatalf("stats = %+v, want 2 requests, 1 hit, 1 miss, 1 load", st)
	}

	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", health.StatusCode)
	}
}
