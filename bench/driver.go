package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/api"
)

// recorder collects what one connection (or one round) measured. Each
// connection owns one, so the request loop takes no lock; rounds merge
// them afterwards.
type recorder struct {
	lat       map[string][]time.Duration
	attempted int64
	failed    int64
	failures  []string
}

func newRecorder() *recorder { return &recorder{lat: map[string][]time.Duration{}} }

func (r *recorder) observe(op string, d time.Duration) {
	r.lat[op] = append(r.lat[op], d)
}

// failf counts one failed request or failed check against the attempts.
func (r *recorder) failf(format string, args ...any) {
	r.failed++
	if len(r.failures) < 4 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	for op, ds := range o.lat {
		r.lat[op] = append(r.lat[op], ds...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 8 {
			r.failures = append(r.failures, f)
		}
	}
}

// client is the benchmark's only way to the server: one transport
// capped at conns keep-alive connections, shared by the request loops,
// the health poll and the stats scrapes.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				MaxIdleConns:        conns,
				IdleConnTimeout:     2 * time.Minute,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and reads the whole response into buf. The
// latency is what the caller waits: from handing the request to the
// transport until the last body byte arrived.
func (c *client) post(path, apiKey string, body []byte, buf *bytes.Buffer) (status int, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.ClientKeyHeader, apiKey)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	lat = time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, lat, err
}

// get fetches path and returns the body.
func (c *client) get(path string) (int, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// checkFunc verifies one 2xx answer; it reports problems through
// rec.failf.
type checkFunc func(req request, body []byte, rec *recorder)

// conn is one closed-loop connection: its API key, its request stream
// and how far into the stream it is. The position survives across
// rounds, so a round continues the cycle the previous one left.
type conn struct {
	apiKey string
	st     stream
	check  checkFunc
	n      int
	body   []byte
	resp   bytes.Buffer
}

// call sends the connection's next request and records the outcome: a
// transport error, a non-2xx status and a failed check each count as one
// failed attempt; only 2xx answers contribute a latency sample.
func (cn *conn) call(c *client, rec *recorder) {
	if cn.n%nullEvery == 0 {
		cn.null(c, rec)
	}
	req := cn.st(cn.n, cn.body)
	cn.n++
	if req.Ref < 0 {
		cn.body = req.Body // keep the grown buffer for the next novel query
	}
	cn.send(c, req, rec)
}

// nullEvery is how often a connection slips a null request between its
// own: enough samples for a median, too few to change the mix or the
// server's CPU time per request by more than a few per cent.
const nullEvery = 32

// null sends the null request — GET /healthz, the least this server can
// be asked — on the connection and records its latency as op "null". It
// travels the same sockets, wakes the same threads and pays the same
// net/http as the real requests beside it, so its median moves with the
// host and hardly with the handlers: a diagnostic that tells a slow
// half hour of the host from a slow handler. It is not a request of the
// workload and is not counted as attempted; one that fails is a failure
// all the same.
func (cn *conn) null(c *client, rec *recorder) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		rec.failf("null: %v", err)
		return
	}
	req.Header.Set(api.ClientKeyHeader, cn.apiKey)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		rec.failf("null: transport: %v", err)
		return
	}
	cn.resp.Reset()
	_, err = cn.resp.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		rec.failf("null: status %d, %v", resp.StatusCode, err)
		return
	}
	rec.observe("null", lat)
}

func (cn *conn) send(c *client, req request, rec *recorder) bool {
	rec.attempted++
	status, lat, err := c.post(req.Path, cn.apiKey, req.Body, &cn.resp)
	if err != nil {
		rec.failf("%s: transport: %v", req.Op, err)
		return false
	}
	if status/100 != 2 {
		rec.failf("%s: status %d: %.120s", req.Op, status, cn.resp.Bytes())
		return false
	}
	rec.observe(req.Op, lat)
	before := rec.failed
	if cn.check != nil {
		cn.check(req, cn.resp.Bytes(), rec)
	}
	return rec.failed == before
}

// runClosedLoop drives every connection back to back until the
// deadline, one goroutine per connection and none per request, and
// returns the merged record.
func runClosedLoop(c *client, conns []*conn, d time.Duration) *recorder {
	deadline := time.Now().Add(d)
	recs := make([]*recorder, len(conns))
	done := make(chan struct{})
	for i, cn := range conns {
		recs[i] = newRecorder()
		go func(cn *conn, rec *recorder) {
			defer func() { done <- struct{}{} }()
			for time.Now().Before(deadline) {
				cn.call(c, rec)
			}
		}(cn, recs[i])
	}
	total := newRecorder()
	for range conns {
		<-done
	}
	for _, r := range recs {
		total.merge(r)
	}
	return total
}

// validRuntime is the basic sanity of a predicted runtime: finite and
// not negative. Zero is a legal answer — the server floors a negative
// prediction of an under-trained model at zero — though never a useful
// one.
func validRuntime(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func decodePredict(body []byte, rec *recorder) (api.PredictResponse, bool) {
	var out api.PredictResponse
	if err := json.Unmarshal(body, &out); err != nil {
		rec.failf("predict: undecodable answer: %v", err)
		return out, false
	}
	if out.Error != nil {
		rec.failf("predict: %v", out.Error)
		return out, false
	}
	if !validRuntime(out.RuntimeSec) {
		rec.failf("predict: runtime %v is not finite and non-negative", out.RuntimeSec)
		return out, false
	}
	return out, true
}
