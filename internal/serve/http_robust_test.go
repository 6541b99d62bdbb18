package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/loadctl"
)

// newServerWith builds an HTTP test server over a custom loader with
// load control attached.
func newServerWith(t testing.TB, loader Loader, opts Options, lc LoadControl) (*httptest.Server, *Service) {
	t.Helper()
	svc := NewService(loader, opts)
	svc.AttachLoadControl(lc)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv, svc
}

// postRaw sends bytes and returns the response (body fully read).
func postRaw(t testing.TB, url string, body []byte, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

var postRoutes = []string{"/v1/predict", "/v1/predict/batch", "/v1/allocate", "/v1/observe"}

// TestHTTPOversizedBodyIs413: a body past maxBodyBytes answers 413 on
// every POST route, instead of a misleading 400 or an unbounded read.
func TestHTTPOversizedBodyIs413(t *testing.T) {
	srv, _ := newTestServer(t)
	// Valid JSON prefix so the decoder keeps reading the giant string
	// value until MaxBytesReader cuts it off.
	body := append([]byte(`{"job":"`), bytes.Repeat([]byte("a"), MaxBodyBytes+16)...)
	body = append(body, '"', '}')
	for _, route := range postRoutes {
		resp, raw := postRaw(t, srv.URL+route, body, nil)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", route, resp.StatusCode)
		}
		if e := decodeEnvelope(t, raw); e.Code != api.CodePayloadTooLarge {
			t.Fatalf("%s: body %q, want envelope code %q", route, raw, api.CodePayloadTooLarge)
		}
	}
}

// TestHTTPMalformedJSONDoesNotEchoBody: a malformed body answers 400
// with a generic decode error — request contents (which may hold
// credentials or internal names) never reflect back to the client.
func TestHTTPMalformedJSONDoesNotEchoBody(t *testing.T) {
	srv, _ := newTestServer(t)
	body := []byte(`{"job": SECRET_TOKEN_XYZ}`)
	for _, route := range postRoutes {
		resp, raw := postRaw(t, srv.URL+route, body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", route, resp.StatusCode)
		}
		if strings.Contains(string(raw), "SECRET_TOKEN_XYZ") {
			t.Fatalf("%s: response %q echoes the request body", route, raw)
		}
		if e := decodeEnvelope(t, raw); e.Code != api.CodeBadRequest {
			t.Fatalf("%s: body %q, want envelope code %q", route, raw, api.CodeBadRequest)
		}
	}
}

// TestHTTPTrailingDataIs400: a body is ONE JSON value. A second value,
// a stray closer or junk after it answers 400 on every POST route —
// never 200 for the first value with the rest silently dropped.
// Trailing whitespace is not data.
func TestHTTPTrailingDataIs400(t *testing.T) {
	srv, svc := newTestServer(t)
	svc.AttachObserver(&recordingObserver{})
	valid := map[string][]byte{}
	for route, v := range map[string]any{
		"/v1/predict":       wireRequest(4, 10000),
		"/v1/predict/batch": api.BatchRequest{Requests: []api.PredictRequest{wireRequest(4, 10000)}},
		"/v1/allocate":      wireAllocateRequest(900),
		"/v1/observe":       wireObservation(4, 10000, 55),
	} {
		valid[route], _ = json.Marshal(v)
	}
	for _, route := range postRoutes {
		for _, tail := range []string{string(valid[route]), `{}`, ` junk`, `}`, `]`, `,`, `null`, "\n1"} {
			resp, raw := postRaw(t, srv.URL+route, append(bytes.Clone(valid[route]), tail...), nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s with trailing %q: status %d, want 400: %s", route, tail, resp.StatusCode, raw)
			}
			if e := decodeEnvelope(t, raw); e.Code != api.CodeBadRequest {
				t.Fatalf("%s with trailing %q: code %q, want %q", route, tail, e.Code, api.CodeBadRequest)
			}
		}
		resp, raw := postRaw(t, srv.URL+route, append(bytes.Clone(valid[route]), " \t\r\n"...), nil)
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s with trailing whitespace: status %d, want 2xx: %s", route, resp.StatusCode, raw)
		}
	}
}

// TestHealthzDrainingNotReady: /healthz flips to 503 once the service
// drains, so load balancers stop routing to a shutting-down node.
func TestHealthzDrainingNotReady(t *testing.T) {
	srv, svc := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy status %d, want 200", resp.StatusCode)
	}
	svc.SetDraining(true)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", resp.StatusCode)
	}
	svc.SetDraining(false)
}

// TestHTTPRateLimited429: past the per-client burst the server answers
// 429 with a Retry-After hint, and a different client identity is not
// affected.
func TestHTTPRateLimited429(t *testing.T) {
	srv, svc := newTestServer(t)
	svc.AttachLoadControl(LoadControl{
		Limiter: loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 0.001, Burst: 2}),
	})
	body, _ := json.Marshal(wireRequest(4, 10000))
	for i := 0; i < 2; i++ {
		resp, raw := postRaw(t, srv.URL+"/v1/predict", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s), want 200", i, resp.StatusCode, raw)
		}
	}
	resp, raw := postRaw(t, srv.URL+"/v1/predict", body, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 past the burst", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive whole-second hint", ra)
	}
	if e := decodeEnvelope(t, raw); e.Code != api.CodeRateLimited || e.RetryAfterMs <= 0 {
		t.Fatalf("429 body %q, want envelope code %q with a retry hint", raw, api.CodeRateLimited)
	}
	// Another client (distinct API key) has its own bucket.
	resp, _ = postRaw(t, srv.URL+"/v1/predict", body, map[string]string{api.ClientKeyHeader: "other-client"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other client status %d, want 200", resp.StatusCode)
	}
	st := svc.Stats()
	if st.LoadCtl == nil || st.LoadCtl.RateLimited != 1 || st.LoadCtl.Clients != 2 {
		t.Fatalf("loadctl stats = %+v, want 1 limited across 2 clients", st.LoadCtl)
	}
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPGateSheds503: with the only slot held and the queue full,
// the next arrival is answered 503 + Retry-After immediately — the
// rejection costs microseconds, not a queue timeout.
func TestHTTPGateSheds503(t *testing.T) {
	cl := &countingLoader{t: t}
	block := make(chan struct{})
	loader := func(key ModelKey) (*core.Model, error) {
		<-block
		return cl.load(key)
	}
	gate := loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 1, MaxQueue: 1, MaxWait: 5 * time.Second})
	srv, svc := newServerWith(t, loader, Options{}, LoadControl{Gate: gate})

	body, _ := json.Marshal(wireRequest(2, 10000))
	codes := make(chan int, 2)
	post := func() {
		resp, _ := postRaw(t, srv.URL+"/v1/predict", body, nil)
		codes <- resp.StatusCode
	}
	go post() // holds the slot, blocked in the model load
	waitUntil(t, "slot held", func() bool { return gate.Stats().InFlight == 1 })
	go post() // cold predict: heavy, queue bound is max(1/2,1)=1 -> queues
	waitUntil(t, "one waiter queued", func() bool { return gate.Stats().Waiting == 1 })

	start := time.Now()
	resp, raw := postRaw(t, srv.URL+"/v1/predict", body, nil)
	shedLatency := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503 with slot and queue full", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if shedLatency > time.Second {
		t.Fatalf("shed took %v, want an immediate rejection", shedLatency)
	}

	close(block) // let the held and queued requests finish
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("blocked request %d finished with %d, want 200", i, code)
		}
	}
	if st := svc.Stats(); st.LoadCtl.ShedQueueFull != 1 || st.LoadCtl.Queued != 1 {
		t.Fatalf("loadctl stats = %+v, want 1 shed + 1 queued", st.LoadCtl)
	}
}

// TestHTTPDeadline504: a request whose X-Deadline-Ms budget runs out
// while it waits on another caller's in-flight model load abandons the
// wait and answers 504; the load itself survives for the owner.
func TestHTTPDeadline504(t *testing.T) {
	cl := &countingLoader{t: t}
	block := make(chan struct{})
	var loading atomic.Bool
	loader := func(key ModelKey) (*core.Model, error) {
		loading.Store(true)
		<-block
		return cl.load(key)
	}
	svc := NewService(loader, Options{})
	svc.AttachLoadControl(LoadControl{}) // deadline handling only
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	body, _ := json.Marshal(wireRequest(2, 10000))
	ownerCode := make(chan int, 1)
	go func() {
		resp, _ := postRaw(t, srv.URL+"/v1/predict", body, nil)
		ownerCode <- resp.StatusCode
	}()
	waitUntil(t, "owner inside the loader", loading.Load)

	start := time.Now()
	resp, raw := postRaw(t, srv.URL+"/v1/predict", body, map[string]string{api.DeadlineHeader: "60"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504 after the 60ms budget", resp.StatusCode, raw)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("504 took %v, want roughly the 60ms budget", d)
	}
	if e := decodeEnvelope(t, raw); e.Code != api.CodeDeadlineExceeded {
		t.Fatalf("504 body %q, want envelope code %q", raw, api.CodeDeadlineExceeded)
	}

	close(block)
	if code := <-ownerCode; code != http.StatusOK {
		t.Fatalf("owner finished with %d, want 200 (load must survive the waiter's deadline)", code)
	}
	if st := svc.Stats(); st.LoadCtl.DeadlineRejects != 1 {
		t.Fatalf("loadctl stats = %+v, want 1 deadline reject", st.LoadCtl)
	}

	// A budget past the cap, an overflowing one included, runs under
	// DefaultMaxDeadline.
	dl := deadlineObserver(make(chan time.Time, 1))
	svc.AttachObserver(dl)
	ob, _ := json.Marshal(wireObservation(2, 10000, 60))
	for _, ms := range []int64{(DefaultMaxDeadline + time.Hour).Milliseconds(), math.MaxInt64} {
		before := time.Now()
		resp, raw := postRaw(t, srv.URL+"/v1/observe", ob, map[string]string{api.DeadlineHeader: strconv.FormatInt(ms, 10)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe with a %dms budget: status %d (%s), want 202", ms, resp.StatusCode, raw)
		}
		if d := <-dl; d.Before(before.Add(DefaultMaxDeadline)) || d.After(time.Now().Add(DefaultMaxDeadline)) {
			t.Fatalf("a %dms budget ran under deadline %v from now, want DefaultMaxDeadline (%v)", ms, time.Until(d), DefaultMaxDeadline)
		}
	}
}

// deadlineObserver passes on the deadline each observation's context
// carries.
type deadlineObserver chan time.Time

func (o deadlineObserver) Observe(ctx context.Context, _ ModelKey, _ core.Query, _ float64) error {
	d, _ := ctx.Deadline()
	o <- d
	return nil
}

// TestHTTPCachedPredictBypassesSaturatedGate: with every gate slot
// taken by expensive work, memoized predictions still flow — the
// graceful-degradation property the bypass exists for.
func TestHTTPCachedPredictBypassesSaturatedGate(t *testing.T) {
	cl := &countingLoader{t: t}
	block := make(chan struct{})
	loader := func(key ModelKey) (*core.Model, error) {
		if key.Job == "grep" {
			<-block
		}
		return cl.load(key)
	}
	gate := loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 1, MaxQueue: 1, MaxWait: 5 * time.Second})
	srv, svc := newServerWith(t, loader, Options{}, LoadControl{Gate: gate})

	// Warm one query into the result cache while the gate is idle.
	warm, _ := json.Marshal(wireRequest(2, 10000))
	if resp, raw := postRaw(t, srv.URL+"/v1/predict", warm, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming predict: %d (%s)", resp.StatusCode, raw)
	}

	// Saturate the gate with an expensive cold load.
	heavy := wireRequest(2, 10000)
	heavy.Job = "grep"
	heavyBody, _ := json.Marshal(heavy)
	heavyCode := make(chan int, 1)
	go func() {
		resp, _ := postRaw(t, srv.URL+"/v1/predict", heavyBody, nil)
		heavyCode <- resp.StatusCode
	}()
	waitUntil(t, "gate saturated", func() bool { return gate.Stats().InFlight == 1 })

	start := time.Now()
	resp, raw := postRaw(t, srv.URL+"/v1/predict", warm, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached predict under saturation: %d (%s), want 200", resp.StatusCode, raw)
	}
	var out api.PredictResponse
	if err := json.Unmarshal(raw, &out); err != nil || !out.Cached {
		t.Fatalf("response %q, want a cache hit", raw)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cached predict took %v under saturation, want fast bypass", d)
	}
	close(block)
	if code := <-heavyCode; code != http.StatusOK {
		t.Fatalf("heavy request finished with %d, want 200", code)
	}
	if st := svc.Stats(); st.LoadCtl.GateBypassed == 0 {
		t.Fatalf("loadctl stats = %+v, want bypassed > 0", st.LoadCtl)
	}
}

// TestHTTPStatsIncludesLoadCtl: the loadctl counters surface in
// /v1/stats once load control is attached.
func TestHTTPStatsIncludesLoadCtl(t *testing.T) {
	cl := &countingLoader{t: t}
	srv, _ := newServerWith(t, cl.load, Options{}, LoadControl{
		Limiter: loadctl.NewLimiter(loadctl.LimiterConfig{}),
		Gate:    loadctl.NewGate(loadctl.GateConfig{}),
	})
	body, _ := json.Marshal(wireRequest(4, 10000))
	if resp, raw := postRaw(t, srv.URL+"/v1/predict", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d (%s)", resp.StatusCode, raw)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st api.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.LoadCtl == nil {
		t.Fatal("stats missing loadctl block with load control attached")
	}
	if st.LoadCtl.Admitted != 1 || st.LoadCtl.Draining {
		t.Fatalf("loadctl stats = %+v, want 1 admitted and not draining", st.LoadCtl)
	}
}

// TestWarmPredictZeroAllocWithLoadControl pins the ISSUE's hot-path
// bound: the warm cache-hit predict stays allocation-free with the
// rate limiter and admission-gate fast paths in front of it — the
// exact per-request sequence the HTTP handler runs before JSON
// encoding.
func TestWarmPredictZeroAllocWithLoadControl(t *testing.T) {
	cl := &countingLoader{t: t}
	svc := NewService(cl.load, Options{})
	lim := loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e9, Burst: 1e9})
	gate := loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 4})
	svc.AttachLoadControl(LoadControl{Limiter: lim, Gate: gate})
	key := ModelKey{Job: "sort", Env: "c3o"}
	q := testQuery(4, 4096)
	ctx := context.Background()
	if r := svc.Predict(ctx, key, q); r.Err != nil {
		t.Fatalf("cold Predict: %v", r.Err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if ok, _ := lim.Allow("10.0.0.1", time.Now()); !ok {
			t.Fatal("limiter denied")
		}
		if _, ok := svc.lookup(key, q); !ok {
			t.Fatal("expected a cached result")
		}
		r := svc.Predict(ctx, key, q)
		if r.Err != nil || !r.Cached {
			t.Fatalf("warm Predict = %+v", r)
		}
	}); allocs != 0 {
		t.Fatalf("warm predict with load control allocs/op = %v, want 0", allocs)
	}
}

// TestOverloadGracefulDegradation is the acceptance check of the
// overload tier: offered load at ~10x measured capacity must keep
// goodput at >= 50% of that capacity with bounded tail latency, shed
// the excess quickly via 503, and keep cache-hit predictions flowing
// through the bypass the whole time.
//
// The unit of work is a cold predict against a deliberately slow model
// loader, with more distinct model keys than the model cache holds —
// cheap for the client to issue and for the server to reject, but
// expensive (a ~20ms load) to serve. That keeps the open-loop
// generator comfortably ahead of the server even under the race
// detector, so the measured latencies are the server's, not the
// harness's.
func TestOverloadGracefulDegradation(t *testing.T) {
	const loadDelay = 40 * time.Millisecond
	cl := &countingLoader{t: t}
	loader := func(key ModelKey) (*core.Model, error) {
		time.Sleep(loadDelay)
		return cl.load(key)
	}
	gate := loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 2, MaxQueue: 8, MaxWait: 50 * time.Millisecond})
	srv, _ := newServerWith(t, loader, Options{ModelCap: 4}, LoadControl{Gate: gate})
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 512}}
	t.Cleanup(client.CloseIdleConnections)
	// post is goroutine-safe: no t.Fatal, so late probes after the test
	// body finishes cannot panic.
	post := func(path string, body []byte) (int, []byte) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	// Pre-marshal distinct request bodies: 64 model keys (16x the model
	// cache, so nearly every request is a cold load) x distinct query
	// parameters (so no request after the first is a result-cache hit).
	bodies := make([][]byte, 8192)
	for i := range bodies {
		r := wireRequest(2+i%6, 10000)
		r.Job = fmt.Sprintf("load%02d", i%64)
		r.Essential[2].Value = fmt.Sprintf("--iterations %d", i)
		bodies[i], _ = json.Marshal(r)
	}
	postSeq := func(i int) int {
		code, _ := post("/v1/predict", bodies[i%len(bodies)])
		return code
	}

	// Warm one cached probe query on a stable key.
	probeBody, _ := json.Marshal(wireRequest(2, 777))
	if code, raw := post("/v1/predict", probeBody); code != http.StatusOK {
		t.Fatalf("warming probe: %d (%s)", code, raw)
	}

	// Phase 1: closed-loop capacity with as many workers as gate slots —
	// the sustainable single-shard rate for this workload.
	const measure = 500 * time.Millisecond
	var done atomic.Int64
	var next atomic.Int64
	stop := make(chan struct{})
	var capWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		capWG.Add(1)
		go func() {
			defer capWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if postSeq(int(next.Add(1))) == http.StatusOK {
					done.Add(1)
				}
			}
		}()
	}
	time.Sleep(measure)
	close(stop)
	capWG.Wait()
	capacity := float64(done.Load()) / measure.Seconds()
	if capacity <= 0 {
		t.Fatal("no requests completed during capacity measurement")
	}

	// Phase 2: open loop at 10x capacity, with cached probes riding
	// along to verify the bypass.
	probeStop := make(chan struct{})
	probeDone := make(chan struct{})
	var probeFail, probeOK atomic.Int64
	go func() {
		defer close(probeDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-probeStop:
				return
			case <-tick.C:
				code, raw := post("/v1/predict", probeBody)
				var out api.PredictResponse
				if code != http.StatusOK || json.Unmarshal(raw, &out) != nil || !out.Cached {
					probeFail.Add(1)
				} else {
					probeOK.Add(1)
				}
			}
		}
	}()
	base := int(next.Load()) + 1
	res := runOpenLoop(openLoopConfig{
		Rate:           10 * capacity,
		Duration:       1500 * time.Millisecond,
		MaxOutstanding: 256,
	}, func(seq int) outcome {
		switch postSeq(base + seq) {
		case http.StatusOK:
			return outcomeOK
		case http.StatusServiceUnavailable:
			return outcomeShed
		case http.StatusGatewayTimeout:
			return outcomeDeadline
		default:
			return outcomeError
		}
	})
	close(probeStop)
	<-probeDone

	t.Logf("capacity %.0f/s; offered %.0f/s: goodput %.0f/s, ok %d, shed %d, dropped %d, err %d, ok p99 %v, shed p99 %v, probes %d ok / %d failed",
		capacity, res.Offered, res.Goodput(), res.OK, res.Shed, res.Dropped, res.Errors,
		res.OKLatency.Quantile(0.99), res.ShedLatency.Quantile(0.99),
		probeOK.Load(), probeFail.Load())

	if res.Shed == 0 {
		t.Fatal("10x overload shed nothing: the gate is not protecting the server")
	}
	if res.Errors > 0 {
		t.Fatalf("%d requests failed outright under overload, want clean 200/503/504 split", res.Errors)
	}
	if g := res.Goodput(); g < 0.5*capacity {
		t.Fatalf("goodput %.1f/s under 10x overload, want >= 50%% of the %.1f/s capacity", g, capacity)
	}
	// Bounded tails: accepted work waits at most MaxWait in the queue
	// plus service time; rejections are immediate. Bounds are loose for
	// noisy CI machines; the benchmark under bench/ times the warm
	// round trip as its serve.loopback_hit_us rung.
	if p99 := res.OKLatency.Quantile(0.99); p99 > 2*time.Second {
		t.Fatalf("ok p99 = %v under overload, want bounded by queue cap + service time", p99)
	}
	if p99 := res.ShedLatency.Quantile(0.99); p99 > 250*time.Millisecond {
		t.Fatalf("shed p99 = %v, want near-immediate rejections", p99)
	}
	if probeFail.Load() > 0 {
		t.Fatalf("%d cached probes failed during overload (of %d), want all served via the bypass",
			probeFail.Load(), probeFail.Load()+probeOK.Load())
	}
	if probeOK.Load() == 0 {
		t.Fatal("no cached probes completed during overload")
	}
}

// BenchmarkHTTPPredictWarm measures the full HTTP round trip of a
// cache-hit predict with limiter + gate attached — the hot serving
// path under load control.
func BenchmarkHTTPPredictWarm(b *testing.B) {
	cl := &countingLoader{t: b}
	srv, _ := newServerWith(b, cl.load, Options{}, LoadControl{
		Limiter: loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e9, Burst: 1e9}),
		Gate:    loadctl.NewGate(loadctl.GateConfig{}),
	})
	body, _ := json.Marshal(wireRequest(4, 10000))
	client := srv.Client()
	post := func() int {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != http.StatusOK {
		b.Fatalf("warming predict: %d", code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := post(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkHTTPRateLimited measures the cost of answering 429: the
// price of rejecting one over-limit request, which bounds how cheap
// overload protection is.
func BenchmarkHTTPRateLimited(b *testing.B) {
	cl := &countingLoader{t: b}
	srv, _ := newServerWith(b, cl.load, Options{}, LoadControl{
		Limiter: loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e-9, Burst: 1}),
	})
	body, _ := json.Marshal(wireRequest(4, 10000))
	client := srv.Client()
	post := func() int {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	post() // consume the single burst token
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := post(); code != http.StatusTooManyRequests {
			b.Fatalf("status %d, want 429", code)
		}
	}
}

// BenchmarkHTTPShed measures the cost of answering 503 with the gate
// saturated — the shed path that must stay microseconds under
// overload.
func BenchmarkHTTPShed(b *testing.B) {
	cl := &countingLoader{t: b}
	block := make(chan struct{})
	loader := func(key ModelKey) (*core.Model, error) {
		<-block
		return cl.load(key)
	}
	gate := loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 1, MaxQueue: 1, MaxWait: 10 * time.Minute})
	srv, _ := newServerWith(b, loader, Options{}, LoadControl{Gate: gate})
	body, _ := json.Marshal(wireRequest(2, 10000))
	client := srv.Client()
	post := func() int {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// Occupy the slot and the queue so every measured request sheds.
	finished := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() { post(); finished <- struct{}{} }()
	}
	deadline := time.Now().Add(2 * time.Second)
	for gate.Stats().InFlight != 1 || gate.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			b.Fatal("gate never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := post(); code != http.StatusServiceUnavailable {
			b.Fatalf("status %d, want 503", code)
		}
	}
	b.StopTimer()
	close(block)
	<-finished
	<-finished
}
