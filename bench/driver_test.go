package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingListener counts accepted connections and the most that were
// open at once.
type countingListener struct {
	net.Listener
	mu                   sync.Mutex
	accepted, open, peak int
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.accepted++
	l.open++
	l.peak = max(l.peak, l.open)
	l.mu.Unlock()
	return &countedConn{Conn: c, l: l}, nil
}

type countedConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() {
		c.l.mu.Lock()
		c.l.open--
		c.l.mu.Unlock()
	})
	return c.Conn.Close()
}

func startCounted(t *testing.T, h http.Handler) (*httptest.Server, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	srv := httptest.NewUnstartedServer(h)
	srv.Listener = cl
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, cl
}

func fixedStream(op, path, body string) stream {
	return func(n int, _ []byte) request {
		return request{Op: op, Path: path, Body: []byte(body), Ref: n}
	}
}

// The driver holds at most as many connections as it was given, however
// many requests it sends, health polls and stats scrapes included.
func TestDriverNeverExceedsItsConnections(t *testing.T) {
	const conns = 2
	var served atomic.Int64
	srv, ln := startCounted(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte(`{"runtime_sec":12.5}`))
	}))
	c := newClient(srv.URL, conns)
	defer c.close()
	cs := make([]*conn, conns)
	for i := range cs {
		cs[i] = &conn{apiKey: apiKey(i), st: fixedStream("predict", "/v1/predict", `{}`)}
	}
	for round := 0; round < 3; round++ {
		rec := runClosedLoop(c, cs, 150*time.Millisecond)
		if rec.failed != 0 || rec.attempted == 0 {
			t.Fatalf("round %d: %d attempted, %d failed: %v", round, rec.attempted, rec.failed, rec.failures)
		}
		if _, _, err := c.get("/v1/stats"); err != nil {
			t.Fatal(err)
		}
	}
	if served.Load() < 100 {
		t.Fatalf("only %d requests served; the loop is not closed-loop fast", served.Load())
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.peak > conns || ln.accepted > conns {
		t.Errorf("driver opened %d connections (%d at once), allowed %d", ln.accepted, ln.peak, conns)
	}
}

// Every non-2xx answer, every transport error and every failed check is
// one failed attempt; only clean answers contribute latency samples.
func TestEveryFailureCounts(t *testing.T) {
	var n atomic.Int64
	srv, _ := startCounted(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 4 {
		case 0: // refused
			http.Error(w, `{"error":{"code":"overloaded","message":"shed"}}`, http.StatusServiceUnavailable)
		case 1: // transport error: the connection dies mid-response
			hj, _ := w.(http.Hijacker)
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
		case 2: // 200, wrong answer
			w.Write([]byte(`{"runtime_sec":-1}`))
		default: // 200, fine
			w.Write([]byte(`{"runtime_sec":3}`))
		}
	}))
	c := newClient(srv.URL, 1)
	defer c.close()
	cn := &conn{apiKey: "k", st: fixedStream("predict", "/v1/predict", `{}`),
		check: func(_ request, body []byte, rec *recorder) { decodePredict(body, rec) }}
	rec := newRecorder()
	for i := 0; i < 40; i++ {
		cn.send(c, cn.st(i, nil), rec) // send, not call: no null requests between the four outcomes
	}
	if rec.attempted != 40 || rec.failed != 30 {
		t.Fatalf("attempted %d, failed %d, want 40 and 30: %v", rec.attempted, rec.failed, rec.failures)
	}
	if got := len(rec.lat["predict"]); got != 20 {
		t.Errorf("%d latency samples, want 20 (the 2xx answers)", got)
	}
	var kinds [3]bool
	for _, f := range rec.failures {
		kinds[0] = kinds[0] || strings.Contains(f, "status 503")
		kinds[1] = kinds[1] || strings.Contains(f, "transport")
		kinds[2] = kinds[2] || strings.Contains(f, "runtime -1")
	}
	if kinds != [3]bool{true, true, true} {
		t.Errorf("failure messages miss a kind (status, transport, check): %v", rec.failures)
	}

	// The runner turns them into error_rate.
	res := WorkloadResult{Attempted: rec.attempted, Failed: rec.failed}
	(&serveBase{name: "t"}).reportCommon(&res, []*recorder{rec}, time.Second)
	if m, ok := res.metric("error_rate"); !ok || m.Value != 0.75 {
		t.Errorf("error_rate = %v, want 0.75", m.Value)
	}
}
