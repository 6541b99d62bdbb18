package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
)

// TestServeObservabilitySmoke drives the real serve entrypoint with
// the full observability surface switched on: a traced request
// against a sharded deployment must echo its X-Trace-Id, show up in
// GET /v1/debug/slow, and be visible on a parse-clean /metrics scrape
// carrying per-shard labels and router series, with pprof mounted
// behind -pprof — all through the same flags an operator would use.
func TestServeObservabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process end-to-end test")
	}
	root := t.TempDir()
	modelsDir := filepath.Join(root, "models")
	if err := os.MkdirAll(modelsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeTestModel(t, modelsDir)

	ready := make(chan string, 1)
	testHookServeReady = func(addr string) { ready <- addr }
	defer func() { testHookServeReady = nil }()
	served := make(chan error, 1)
	go func() {
		served <- runServe([]string{
			"-models", modelsDir,
			"-addr", "127.0.0.1:0",
			"-shards", "2",
			"-rate-limit", "0",
			"-pprof",
			"-trace-sample", "1",
			"-log-format", "json",
			"-log-level", "warn",
			"-drain-timeout", "10s",
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-served:
		t.Fatalf("serve exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve never became ready")
	}
	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}

	// A traced predict: the client-supplied ID comes back on the
	// response header.
	const traceID = "smoke-trace-0001"
	pb, _ := json.Marshal(drainWire(4))
	req, err := http.NewRequest(http.MethodPost, base+"/v1/predict", bytes.NewReader(pb))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.TraceIDHeader, traceID)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.TraceIDHeader); got != traceID {
		t.Fatalf("echoed trace ID %q, want %q", got, traceID)
	}

	// The trace is retained by the slow ring with named stages.
	resp, err = client.Get(base + "/v1/debug/slow")
	if err != nil {
		t.Fatalf("debug/slow: %v", err)
	}
	var slow api.SlowTracesResponse
	err = json.NewDecoder(resp.Body).Decode(&slow)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode slow traces: %v", err)
	}
	found := false
	for _, tr := range slow.Traces {
		if tr.TraceID == traceID {
			found = true
			if len(tr.Spans) < 6 {
				t.Fatalf("trace retained with %d spans, want >= 6: %+v", len(tr.Spans), tr.Spans)
			}
		}
	}
	if !found {
		t.Fatalf("trace %q not in /v1/debug/slow (%d traces)", traceID, len(slow.Traces))
	}

	// /metrics carries per-shard labels, router series, runtime gauges,
	// and tracer accounting from the one request above.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		`bellamy_predict_requests_total{shard="0"}`,
		`bellamy_predict_requests_total{shard="1"}`,
		"bellamy_router_requests_total 1",
		"bellamy_traces_sampled_total 1",
		"go_goroutines",
	} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, raw)
		}
	}
	// The predict gave its float32 arena and its request scratch back to
	// their free lists.
	for _, gauge := range []string{`bellamy_scratch_bytes{precision="f32"} `, "bellamy_request_scratch_bytes "} {
		if i := strings.Index(string(raw), gauge); i < 0 || strings.HasPrefix(string(raw[i+len(gauge):]), "0\n") {
			t.Fatalf("/metrics has no %s> 0 after a computed predict:\n%s", gauge, raw)
		}
	}

	// pprof is mounted behind -pprof on the same listener.
	resp, err = client.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("runServe after SIGTERM = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain within 30s of SIGTERM")
	}
}
