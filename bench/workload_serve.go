package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/store"
)

// ---- serve-hot -------------------------------------------------------

// serveHot is the read path with nothing to compute: one Service, each
// connection cycling the 64 repeated queries, far fewer than the result
// cache holds, so after the warm-up every answer is a cache hit that
// bypasses the admission gate. What remains is net/http, JSON, loadctl,
// the handler pipeline and obs.
type serveHot struct {
	serveBase
	conns []*conn
	mu    sync.Mutex
	seen  []float64 // first answer per repeated query (NaN: none yet); later ones must equal it
}

func newServeHot(env *benchEnv) *serveHot {
	return &serveHot{serveBase: serveBase{env: env, name: wlServeHot, nconns: env.conns, headlineOp: "predict",
		flags: func(string) []string { return nil }}}
}

func (w *serveHot) Setup() error {
	if err := w.serveBase.Setup(); err != nil {
		return err
	}
	w.seen = make([]float64, len(w.in.Hot))
	for i := range w.seen {
		w.seen[i] = math.NaN()
	}
	w.conns = nil
	for i := 0; i < w.nconns; i++ {
		w.conns = append(w.conns, &conn{apiKey: apiKey(i), st: w.in.hotStream(i, w.nconns), check: w.check})
	}
	return nil
}

// check: a finite positive runtime, and the same one every time — no
// model changes on this server, so a repeated query has one answer.
func (w *serveHot) check(req request, body []byte, rec *recorder) {
	out, ok := decodePredict(body, rec)
	if !ok {
		return
	}
	w.mu.Lock()
	first := w.seen[req.Ref]
	if math.IsNaN(first) {
		w.seen[req.Ref] = out.RuntimeSec
	}
	w.mu.Unlock()
	if !math.IsNaN(first) && first != out.RuntimeSec {
		rec.failf("predict: query %d answered %v, earlier %v", req.Ref, out.RuntimeSec, first)
	}
}

func (w *serveHot) Run(d time.Duration) *recorder { return runClosedLoop(w.cl, w.conns, d) }

func (w *serveHot) Report(res *WorkloadResult, rounds []*recorder, roundDur time.Duration) {
	st := reduceRounds(opRounds(rounds, "predict"), time.Microsecond, 0.99)
	res.addStat("predict_p50_us", st)
	res.addLayer("driver.predict_p99_us", "us", st.Tail, st.Samples)
	w.reportCommon(res, rounds, roundDur)
	if m, ok := res.metric("serve.result_hit_ratio"); !ok || m.Value < 0.99 {
		res.fail("serve-hot: result-cache hit ratio %.4f, the workload needs >= 0.99", m.Value)
	}
}

// ---- serve-cold ------------------------------------------------------

// serveCold is the read path with everything to compute: two shards,
// four 256-item batches of never-cached queries for every allocation
// sweep. Every item takes property encoding, an f32 forward pass grouped
// per model, a cache insert and the shard fan-out with its ordered
// merge; the 77 KB bodies make JSON a candidate pole too.
type serveCold struct {
	serveBase
	conns []*conn
}

// batchCheckEvery is how often a batch answer is cross-checked with a
// single predict of one of its items.
const batchCheckEvery = 16

func newServeCold(env *benchEnv) *serveCold {
	return &serveCold{serveBase: serveBase{env: env, name: wlServeCold, nconns: env.conns, sharded: true, parts: partCold, headlineOp: "batch",
		flags: func(string) []string { return []string{"-shards", "2"} }}}
}

func (w *serveCold) Setup() error {
	if err := w.serveBase.Setup(); err != nil {
		return err
	}
	w.conns = nil
	for i := 0; i < w.nconns; i++ {
		cn := &conn{apiKey: apiKey(i), st: w.in.coldStream(i, w.nconns)}
		cn.check = w.checker(cn)
		w.conns = append(w.conns, cn)
	}
	return nil
}

// checker verifies batch length, per-item sanity and — for one batch in
// batchCheckEvery — that a sampled item equals the single predict of the
// same query (which also pins the answer order); allocations must land
// inside the requested scale-out range.
func (w *serveCold) checker(cn *conn) checkFunc {
	var batches int
	var single = new(conn) // the cross-check request reuses the connection's key, not its stream
	single.apiKey = cn.apiKey
	return func(req request, body []byte, rec *recorder) {
		switch req.Op {
		case "batch":
			var out api.BatchResponse
			if err := json.Unmarshal(body, &out); err != nil {
				rec.failf("batch: undecodable answer: %v", err)
				return
			}
			if len(out.Responses) != batchItems || out.Failed != 0 {
				rec.failf("batch %d: %d answers, %d failed, want %d and 0", req.Ref, len(out.Responses), out.Failed, batchItems)
				return
			}
			for i, r := range out.Responses {
				if r.Error != nil || !validRuntime(r.RuntimeSec) {
					rec.failf("batch %d item %d: runtime %v, error %v", req.Ref, i, r.RuntimeSec, r.Error)
					return
				}
			}
			batches++
			if batches%batchCheckEvery != 0 {
				return
			}
			item := (batches / batchCheckEvery * 37) % batchItems
			want := out.Responses[item].RuntimeSec
			sreq := request{Op: "predict_check", Path: "/v1/predict", Body: mustMarshal(w.in.ColdReqs[req.Ref][item])}
			single.check = func(_ request, sbody []byte, rec *recorder) {
				if got, ok := decodePredict(sbody, rec); ok && relDiff(got.RuntimeSec, want) > 1e-4 {
					rec.failf("batch %d item %d: batch said %v, single predict %v", req.Ref, item, want, got.RuntimeSec)
				}
			}
			single.send(w.cl, sreq, rec)
		case "allocate":
			var out api.AllocateResponse
			if err := json.Unmarshal(body, &out); err != nil {
				rec.failf("allocate: undecodable answer: %v", err)
				return
			}
			in := w.in.AllocReqs[req.Ref]
			if out.Error != nil || out.ScaleOut < in.MinScaleOut || out.ScaleOut > in.MaxScaleOut ||
				math.IsNaN(out.PredictedSec) || out.PredictedSec < 0 {
				rec.failf("allocate %d: scale-out %d (asked %d..%d), predicted %v, error %v",
					req.Ref, out.ScaleOut, in.MinScaleOut, in.MaxScaleOut, out.PredictedSec, out.Error)
			}
		}
	}
}

func (w *serveCold) Run(d time.Duration) *recorder { return runClosedLoop(w.cl, w.conns, d) }

func (w *serveCold) Report(res *WorkloadResult, rounds []*recorder, roundDur time.Duration) {
	bs := reduceRounds(opRounds(rounds, "batch"), time.Millisecond, 0.99)
	res.addStat("batch_p50_ms", bs)
	res.addLayer("driver.batch_p99_ms", "ms", bs.Tail, bs.Samples)
	as := reduceRounds(opRounds(rounds, "allocate"), time.Microsecond, 0.99)
	res.addStat("allocate_p50_us", as)
	res.addLayer("driver.allocate_p99_us", "us", as.Tail, as.Samples)
	w.reportCommon(res, rounds, roundDur)
	if len(w.bounds) == 2 {
		res.addLayer("shard.batch_fanouts", "count", float64(w.bounds[1].BatchFanouts-w.bounds[0].BatchFanouts), bs.Samples)
	}
	if m, ok := res.metric("serve.result_hit_ratio"); !ok || m.Value > 0.01 {
		res.fail("serve-cold: result-cache hit ratio %.4f, the workload needs <= 0.01", m.Value)
	}
}

// ---- online-adapt ----------------------------------------------------

// onlineAdapt is writes beside reads. Connection A reports a window of
// observations for one key and waits for the fine-tuned model to show in
// the key's probe answer; the other connections predict, half repeated
// queries and half new ones. WAL append, ring buffering, a background
// fine-tune that takes one of the two vCPUs, checkpoint, registry swap
// and result-cache invalidation all run while predictions are served.
type onlineAdapt struct {
	serveBase
	readers []*conn
	a       *conn
	window  int

	// swapGen[k] counts the model versions connection A has seen take
	// effect on key k; the readers' stale-answer check compares against
	// it.
	swapGen []atomic.Int64
}

// minSwapsPer40s is how many model swaps a 40 s measured phase must see.
const minSwapsPer40s = 30

// readerState is what one reader connection remembers for the
// stale-answer check.
type readerState struct {
	// seen[q] is the current answer of repeated query q and the swap
	// generation read right after it first arrived.
	seen []seenAnswer
	// sendGen is the swap generation of the pending request's key, read
	// before the request left.
	sendGen int64
}

type seenAnswer struct {
	val float64
	gen int64
}

func newOnlineAdapt(env *benchEnv) *onlineAdapt {
	w := &onlineAdapt{}
	w.serveBase = serveBase{env: env, name: wlOnlineAdapt, nconns: max(env.conns, 2), headlineOp: "predict",
		flags: func(data string) []string {
			return []string{"-observe", "-data-dir", data, "-fsync", "interval",
				"-finetune-interval", "50ms", "-finetune-min-samples", strconv.Itoa(windowObs),
				"-observe-buffer", strconv.Itoa(ringCap)}
		},
		prefill: prefillRings,
	}
	return w
}

// prefillRings writes every key's observation ring full into a fresh
// WAL and marks it digested, so the server boots (through its recovery
// path) with 64-sample rings, the size every fine-tune of the run then
// works on, without running a single fine-tune before the first window.
// The rings hold what eight earlier windows would have left: runtimes
// scattered around the key's own model's predictions.
func prefillRings(in *inputs, modelsDir, dataDir string) error {
	st, err := store.Open(dataDir, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		return fmt.Errorf("bench: opening prefill store: %w", err)
	}
	defer st.Close() // the error path; the success path checks Close below
	now := time.Now()
	for ki, k := range in.Keys {
		m, err := core.LoadFile(filepath.Join(modelsDir, serve.ModelFileName(serve.ModelKey{Job: k.Job, Env: k.Env})))
		if err != nil {
			return fmt.Errorf("bench: prefill: %w", err)
		}
		for i := 0; i < ringCap; i++ {
			r, err := serve.ToRequest(in.HotReqs[ki*len(hotScaleOuts)+i%windowObs])
			if err != nil {
				return fmt.Errorf("bench: prefill: %w", err)
			}
			pred, err := m.Predict(r.Query.ScaleOut, r.Query.Essential, r.Query.Optional)
			if err != nil {
				return fmt.Errorf("bench: prefill predict: %w", err)
			}
			s := core.Sample{ScaleOut: r.Query.ScaleOut, Essential: r.Query.Essential, Optional: r.Query.Optional,
				RuntimeSec: in.observedRuntime(i/windowObs, i%windowObs, pred)}
			if err := st.AppendObservation(k.Job, k.Env, s, now); err != nil {
				return fmt.Errorf("bench: prefill append: %w", err)
			}
		}
		if err := st.AppendDigest(k.Job, k.Env, ringCap, now); err != nil {
			return fmt.Errorf("bench: prefill digest: %w", err)
		}
	}
	return st.Close()
}

// contextExecutions returns the recorded runs of a key's fixed context.
func contextExecutions(in *inputs, k servedKey) []dataset.Execution {
	if k.Ctx.Env == dataset.EnvBell {
		return in.Bell.ForContext(k.Ctx.ID)
	}
	return in.C3O.ForContext(k.Ctx.ID)
}

func (w *onlineAdapt) Setup() error {
	if err := w.serveBase.Setup(); err != nil {
		return err
	}
	w.a = &conn{apiKey: apiKey(0)}
	w.window = 0
	w.swapGen = make([]atomic.Int64, len(w.in.Keys))
	w.readers = nil
	for i := 1; i < w.nconns; i++ {
		rs := &readerState{seen: make([]seenAnswer, len(w.in.Hot))}
		base := w.in.mixedStream()
		st := func(n int, buf []byte) request {
			req := base(n, buf)
			if req.Ref >= 0 {
				rs.sendGen = w.swapGen[req.Ref/len(hotScaleOuts)].Load()
			}
			return req
		}
		w.readers = append(w.readers, &conn{apiKey: apiKey(i), st: st, check: w.readerCheck(rs)})
	}
	return nil
}

// readerCheck is the "no stale cached answer after a swap" invariant as
// a client can see it. Windows of one key run one after another, so when
// an answer first arrives with A having seen g swaps, it comes from
// version g or — a swap A has not polled yet — g+1. A request sent after
// A saw g+2 swaps take effect must be answered by version g+2 or later;
// the same value again means a cached answer outlived its model.
func (w *onlineAdapt) readerCheck(rs *readerState) checkFunc {
	return func(req request, body []byte, rec *recorder) {
		out, ok := decodePredict(body, rec)
		if !ok || req.Ref < 0 {
			return
		}
		prev := rs.seen[req.Ref]
		if prev.val != out.RuntimeSec || out.RuntimeSec == 0 { // a floored zero may repeat across versions
			rs.seen[req.Ref] = seenAnswer{val: out.RuntimeSec, gen: w.swapGen[req.Ref/len(hotScaleOuts)].Load()}
			return
		}
		if rs.sendGen >= prev.gen+2 {
			rec.failf("predict: query %d still answers %v, first seen at swap %d, on a request sent after swap %d",
				req.Ref, out.RuntimeSec, prev.gen, rs.sendGen)
		}
	}
}

// Run drives the readers closed-loop while connection A runs windows
// until the deadline.
func (w *onlineAdapt) Run(d time.Duration) *recorder {
	deadline := time.Now().Add(d)
	arec := newRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for time.Now().Before(deadline) {
			w.runWindow(arec, deadline)
		}
	}()
	total := runClosedLoop(w.cl, w.readers, d)
	<-done
	total.merge(arec)
	return total
}

// runWindow is one adaptation as a client lives it: ask what the model
// predicts for the key, report windowObs runs that took a seeded factor
// longer or shorter, then poll the probe query until its answer changes.
// The lag runs from the ack of the last observation to that answer. A
// window cut off by the deadline finishes its wait (bounded) so that the
// next round starts from a settled server, but is not a sample.
func (w *onlineAdapt) runWindow(rec *recorder, deadline time.Time) {
	ki := w.window % len(w.in.Keys)
	window := w.window
	w.window++
	reqs := w.in.HotReqs[ki*len(hotScaleOuts) : (ki+1)*len(hotScaleOuts)]
	probe := request{Op: "probe", Path: "/v1/predict", Body: w.in.Hot[ki*len(hotScaleOuts)]}

	// Current predictions for the window's eight scale-outs; item 0 is
	// the probe query.
	var preds api.BatchResponse
	w.a.check = func(_ request, body []byte, rec *recorder) {
		if err := json.Unmarshal(body, &preds); err != nil || len(preds.Responses) != len(reqs) || preds.Failed != 0 {
			rec.failf("window: reading current predictions: %v (%d answers, %d failed)", err, len(preds.Responses), preds.Failed)
		}
	}
	if !w.a.send(w.cl, request{Op: "window_read", Path: "/v1/predict/batch", Body: mustMarshal(api.BatchRequest{Requests: reqs})}, rec) {
		return
	}
	before := preds.Responses[0].RuntimeSec

	w.a.check = func(_ request, body []byte, rec *recorder) {
		var out api.ObserveResponse
		if err := json.Unmarshal(body, &out); err != nil || !out.Accepted {
			rec.failf("observe: not acknowledged: %v %s", err, body)
		}
	}
	for i, r := range reqs {
		obs := api.ObserveRequest{PredictRequest: r, RuntimeSec: w.in.observedRuntime(window, i, preds.Responses[i].RuntimeSec)}
		if !w.a.send(w.cl, request{Op: "observe", Path: "/v1/observe", Body: mustMarshal(obs)}, rec) {
			return
		}
	}
	acked := time.Now()

	var after float64
	w.a.check = func(_ request, body []byte, rec *recorder) {
		if out, ok := decodePredict(body, rec); ok {
			after = out.RuntimeSec
		}
	}
	giveUp := acked.Add(20 * time.Second)
	for {
		if !w.a.send(w.cl, probe, rec) {
			return
		}
		if after != before {
			break
		}
		if time.Now().After(giveUp) {
			rec.failf("window: key %d probe unchanged 20s after its observations were acknowledged", ki)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	w.swapGen[ki].Add(1)
	if now := time.Now(); now.Before(deadline) {
		rec.observe("adapt_lag", now.Sub(acked))
	}
}

func (w *onlineAdapt) Report(res *WorkloadResult, rounds []*recorder, roundDur time.Duration) {
	ps := reduceRounds(opRounds(rounds, "predict"), time.Microsecond, 0.99)
	res.addStat("predict_p50_us", ps)
	res.addLayer("driver.predict_p99_us", "us", ps.Tail, ps.Samples)
	obs := reduceRounds(opRounds(rounds, "observe"), time.Microsecond, 0.99)
	res.addStat("observe_p50_us", obs)
	res.addLayer("driver.observe_p99_us", "us", obs.Tail, obs.Samples)
	ls := reduceRounds(opRounds(rounds, "adapt_lag"), time.Millisecond, 0.9)
	res.addStat("adapt_lag_p50_ms", ls)
	res.addLayer("driver.adapt_lag_p90_ms", "ms", ls.Tail, ls.Samples)
	w.reportCommon(res, rounds, roundDur)
	if len(w.bounds) == 2 {
		first, last := w.bounds[0], w.bounds[1]
		res.addLayer("lifecycle.finetunes", "count", float64(last.Finetunes-first.Finetunes), 1)
		res.addLayer("lifecycle.swaps", "count", float64(last.Swaps-first.Swaps), 1)
		res.addLayer("lifecycle.mean_finetune_ms", "ms", last.MeanFinetuneMS, int(last.Finetunes))
		if appends := last.WALAppends - first.WALAppends; appends > 0 {
			res.addLayer("store.fsyncs_per_append", "ratio", float64(last.Fsyncs-first.Fsyncs)/float64(appends), int(appends))
		}
	}
	if ls.Samples == 0 {
		res.fail("online-adapt: no adaptation window completed")
	}
	// The workload is writes beside reads only if models keep changing: 30
	// swaps in the 40 s of a full run, in proportion for a shorter one.
	need := int64(minSwapsPer40s * roundDur.Seconds() * float64(len(rounds)) / 40)
	if m, _ := res.metric("lifecycle.swaps"); int64(m.Value) < need {
		res.fail("online-adapt: %d swaps in %d rounds of %v, the workload needs >= %d", int64(m.Value), len(rounds), roundDur, need)
	}
}
