package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/allocate"
	"repro/internal/api"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/lifecycle"
	"repro/internal/loadctl"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// The ladder measures layers from outside: it takes the generated
// inputs of the workloads and calls each layer's public functions
// in-process, one rung at a time, recording a span per timed call. A
// rung's parent is the rung that contains it (loopback ⊃ handler ⊃
// Service ⊃ core ⊃ mat); a rung's self time is its median minus the
// median of the rung beneath it.

// span is one timed call. Times are nanoseconds since the ladder
// started; request_id names the generated input that was replayed, so
// the spans of one request line up across rungs.
type span struct {
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    string `json:"parent"`
	RequestID int    `json:"request_id"`
}

// ladderScale is how many timed spans a rung takes: fast rungs finish
// in well under a millisecond, slow ones take about one or more.
type ladderScale struct{ fast, slow int }

var (
	fullScale  = ladderScale{fast: 1000, slow: 50}
	quickScale = ladderScale{fast: 500, slow: 12}
)

// rung is one step of the ladder.
type rung struct {
	name   string // metric name, unit suffix included
	unit   string // ns, us or ms
	parent string // containing rung, "" at the top
	group  string // workload whose trace file takes the spans
	slow   bool
	// batch is how many calls one span covers: 1, except for rungs far
	// below a microsecond, where two clock reads would be the
	// measurement.
	batch int
	// mk builds the i-th timed call; what it does before returning the
	// closure (building a request, refilling a cache) is not timed.
	mk func(i int) func()
	// allocs adds <name>_allocs: runtime.MemStats.Mallocs per call.
	allocs bool
}

// rungResult is a rung's reduced measurement.
type rungResult struct {
	rung
	median  float64 // in the rung's unit, per call
	samples int
	mallocs float64
}

type ladder struct {
	scale   ladderScale
	start   time.Time
	spans   map[string][]span // by group
	results []rungResult
	err     error
}

func (l *ladder) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

func unitDuration(unit string) time.Duration {
	switch unit {
	case "ns":
		return time.Nanosecond
	case "us":
		return time.Microsecond
	}
	return time.Millisecond
}

// run measures one rung.
func (l *ladder) run(r rung) rungResult { return l.runPair(r)[0] }

// runPair measures rungs whose difference is the result (a traced call
// against the same call untraced): their i-th calls run back to back, so
// whatever drifts over the seconds a rung takes hits both alike. All
// rungs of a pair share the first one's call count.
func (l *ladder) runPair(rs ...rung) []rungResult {
	n := l.scale.fast
	if rs[0].slow {
		n = l.scale.slow
	}
	per := make([][]float64, len(rs))
	for i := 0; i < n && l.err == nil; i++ {
		for k := range rs {
			r := &rs[k]
			r.batch = max(r.batch, 1)
			f := r.mk(i)
			t0 := time.Now()
			for j := 0; j < r.batch; j++ {
				f()
			}
			t1 := time.Now()
			l.spans[r.group] = append(l.spans[r.group], span{
				Name: r.name, Parent: r.parent, RequestID: i,
				StartNS: int64(t0.Sub(l.start)), EndNS: int64(t1.Sub(l.start)),
			})
			per[k] = append(per[k], float64(t1.Sub(t0))/float64(r.batch)/float64(unitDuration(r.unit)))
		}
	}
	out := make([]rungResult, len(rs))
	for k, r := range rs {
		res := rungResult{rung: r, median: median(per[k]), samples: len(per[k]) * r.batch}
		if r.allocs && l.err == nil {
			m := min(n, 200)
			fs := make([]func(), m)
			for i := range fs {
				fs[i] = r.mk(i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, f := range fs {
				f()
			}
			runtime.ReadMemStats(&after)
			res.mallocs = float64(after.Mallocs-before.Mallocs) / float64(m)
		}
		l.results = append(l.results, res)
		out[k] = res
	}
	return out
}

func (l *ladder) result(name string) (rungResult, bool) {
	for _, r := range l.results {
		if r.name == name {
			return r, true
		}
	}
	return rungResult{}, false
}

// ladderService assembles a Service the way `bellamy serve` does: load
// control in front, the metrics registry and tracer attached.
func ladderService(models string) (*serve.Service, *loadctl.Limiter, func() *loadctl.Gate) {
	svc := serve.NewService(serve.DirLoader(models), serve.Options{})
	limiter := loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e6})
	gate := func() *loadctl.Gate { return loadctl.NewGate(loadctl.GateConfig{}) }
	return svc, limiter, gate
}

func attachObs(attach func(*serve.Observability)) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerOptions{})
	tracer.RegisterMetrics(reg, nil)
	attach(&serve.Observability{Metrics: reg, Tracer: tracer})
}

func postRequest(path string, body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.ClientKeyHeader, "ladder")
	return req
}

// handlerCall builds one recorder-driven call of h.
func (l *ladder) handlerCall(h http.Handler, path string, body []byte) func() {
	req, rec := postRequest(path, body), httptest.NewRecorder()
	return func() {
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			l.fail("ladder: %s answered %d: %.200s", path, rec.Code, rec.Body.Bytes())
		}
	}
}

func toServeRequests(l *ladder, in []api.PredictRequest) []serve.Request {
	out := make([]serve.Request, len(in))
	for i, r := range in {
		req, err := serve.ToRequest(r)
		if err != nil {
			l.fail("ladder: converting a generated request: %v", err)
		}
		out[i] = req
	}
	return out
}

func randomDense(rng *rand.Rand, rows, cols int) *mat.Dense {
	m := mat.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// runLadder measures every rung on the inputs of in. work is a scratch
// directory the ladder may fill; the caller removes it.
func runLadder(in *inputs, work string, servedEpochs int, scale ladderScale) (*ladder, error) {
	l := &ladder{scale: scale, start: time.Now(), spans: map[string][]span{}}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(in.Seed))

	models := filepath.Join(work, "models")
	if err := os.MkdirAll(models, 0o755); err != nil {
		return nil, err
	}
	if err := trainServedModels(in, models, servedEpochs); err != nil {
		return nil, err
	}
	key0 := serve.ModelKey{Job: in.Keys[0].Job, Env: in.Keys[0].Env}
	modelPath := filepath.Join(models, serve.ModelFileName(key0))
	model, err := core.LoadFile(modelPath)
	if err != nil {
		return nil, err
	}
	infer, err := model.Quantize()
	if err != nil {
		return nil, err
	}
	hot := toServeRequests(l, in.HotReqs)
	nHot := len(hot)

	// ---- mat, nn, encoding: the kernels under a forward pass ----------

	const b = batchItems
	cfg := model.Cfg
	propRows := b * (cfg.NumEssential + cfg.NumOptional)
	type f32shape struct{ m, k, n int }
	shapes := []f32shape{
		{b, 3, cfg.ScaleOutHidden}, {b, cfg.ScaleOutHidden, cfg.ScaleOutDim},
		{propRows, cfg.PropertySize, cfg.EncoderHidden}, {propRows, cfg.EncoderHidden, cfg.EncodingDim},
		{b, cfg.CombinedDim(), cfg.PredictorHidden}, {b, cfg.PredictorHidden, 1},
	}
	type f32mul struct{ dst, a, b *mat.DenseF32 }
	var muls []f32mul
	for _, s := range shapes {
		muls = append(muls, f32mul{mat.NewDenseF32(s.m, s.n),
			mat.QuantizeDense(randomDense(rng, s.m, s.k)), mat.QuantizeDense(randomDense(rng, s.k, s.n))})
	}
	l.run(rung{name: "mat.sgemm_serve_us", unit: "us", parent: "nn.infer32_forward_us", group: wlServeCold,
		mk: func(int) func() {
			return func() {
				for _, m := range muls {
					mat.MulToF32(m.dst, m.a, m.b)
				}
			}
		}})

	const tb = 64 // training batch (Table I)
	tRows := tb * (cfg.NumEssential + cfg.NumOptional)
	x, wgt, dy := randomDense(rng, tRows, cfg.PropertySize), randomDense(rng, cfg.PropertySize, cfg.EncoderHidden), randomDense(rng, tRows, cfg.EncoderHidden)
	y, dw, dx := mat.NewDense(tRows, cfg.EncoderHidden), mat.NewDense(cfg.PropertySize, cfg.EncoderHidden), mat.NewDense(tRows, cfg.PropertySize)
	l.run(rung{name: "mat.dgemm_train_us", unit: "us", group: wlTrainReuse,
		mk: func(int) func() {
			return func() {
				mat.MulTo(y, x, wgt)      // forward
				mat.MulATBTo(dw, x, dy)   // weight gradient
				mat.MulABTTo(dx, dy, wgt) // input gradient
			}
		}})

	g256a, g256b, g256c := randomDense(rng, 256, 256), randomDense(rng, 256, 256), mat.NewDense(256, 256)
	gemm := l.run(rung{name: "mat.gemm256_us", unit: "us", group: wlTrainReuse, slow: true,
		mk: func(int) func() { return func() { mat.MulTo(g256c, g256a, g256b) } }})

	mlp := nn.TwoLayerSpec{Name: "g", In: cfg.PropertySize, Hidden: cfg.EncoderHidden, Out: cfg.EncodingDim,
		ActHidden: nn.ActivationByName(cfg.Activation), ActOut: nn.ActivationByName(cfg.Activation), Init: cfg.Init}.Build(rng)
	mlp32, err := nn.QuantizeMLP(mlp)
	if err != nil {
		return nil, err
	}
	ws32, x32 := mat.NewWorkspaceF32(), mat.QuantizeDense(randomDense(rng, b, cfg.PropertySize))
	l.run(rung{name: "nn.infer32_forward_us", unit: "us", parent: "core.infer_batch256_us", group: wlServeCold,
		mk: func(int) func() {
			return func() {
				ws32.Reset()
				mlp32.Forward(ws32, x32)
			}
		}})

	enc, encDst := encoding.NewPropertyEncoder(cfg.PropertySize), make([]float64, cfg.PropertySize)
	l.run(rung{name: "encoding.encode_query_ns", unit: "ns", parent: "core.infer_batch256_us", group: wlServeCold,
		mk: func(i int) func() {
			// Seven values no encoder has seen: the query's own, made
			// unique by the call index.
			r := in.ColdReqs[i%coldBatches][i%batchItems]
			vals := make([]string, 0, 7)
			for _, p := range append(append([]api.Property(nil), r.Essential...), r.Optional...) {
				if n, err := strconv.Atoi(p.Value); err == nil {
					vals = append(vals, strconv.Itoa(n+7919*(i+1)))
				} else {
					vals = append(vals, p.Value+"#"+strconv.Itoa(i))
				}
			}
			return func() {
				for _, v := range vals {
					enc.EncodeTo(encDst, v)
				}
			}
		}})

	// ---- core ---------------------------------------------------------

	coldQueries := make([][]core.Query, coldBatches)
	for bi, reqs := range in.ColdReqs {
		for _, r := range toServeRequests(l, reqs) {
			coldQueries[bi] = append(coldQueries[bi], r.Query)
		}
	}
	preds := make([]float64, batchItems)
	l.run(rung{name: "core.infer_batch256_us", unit: "us", parent: "serve.predict_batch256_us", group: wlServeCold,
		mk: func(i int) func() {
			qs := coldQueries[i%coldBatches]
			return func() {
				if err := infer.PredictBatchInto(preds, qs); err != nil {
					l.fail("ladder: InferModel.PredictBatchInto: %v", err)
				}
			}
		}})

	online := core.FinetuneOptions{MaxEpochs: lifecycle.DefaultFinetuneEpochs, Patience: lifecycle.DefaultFinetunePatience}
	execs := contextExecutions(in, in.Keys[0])
	ring := make([]core.Sample, ringCap)
	for i := range ring {
		ring[i] = core.SamplesFromExecutions(execs[i%len(execs) : i%len(execs)+1])[0]
	}
	// What an online-adapt fine-tune digests: windows of observations
	// scattered around the served predictions.
	window := func(w int, predict func(core.Query) (float64, error)) []core.Sample {
		out := make([]core.Sample, windowObs)
		for j, r := range hot[:windowObs] {
			pred, err := predict(r.Query)
			if err != nil {
				l.fail("ladder: predicting a window: %v", err)
			}
			out[j] = core.Sample{ScaleOut: r.Query.ScaleOut, Essential: r.Query.Essential, Optional: r.Query.Optional,
				RuntimeSec: in.observedRuntime(w, j, pred)}
		}
		return out
	}
	// A full ring is eight windows, each scattered by its own factor.
	var windows []core.Sample
	for w := 0; w < ringCap/windowObs; w++ {
		windows = append(windows, window(w, func(q core.Query) (float64, error) {
			return model.Predict(q.ScaleOut, q.Essential, q.Optional)
		})...)
	}
	for _, ft := range []struct {
		name    string
		samples []core.Sample
	}{{"core.finetune_8_ms", windows[:windowObs]}, {"core.finetune_64_ms", windows}} {
		l.run(rung{name: ft.name, unit: "ms", parent: "lifecycle.runonce_ms", group: wlOnlineAdapt, slow: true,
			mk: func(int) func() {
				return func() {
					c, err := model.Clone()
					if err == nil {
						_, err = c.Finetune(ft.samples, online)
					}
					if err != nil {
						l.fail("ladder: clone + fine-tune: %v", err)
					}
				}
			}})
	}

	var saved bytes.Buffer
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"core.clone_us", func() error { _, err := model.Clone(); return err }},
		{"core.save_us", func() error { saved.Reset(); return model.Save(&saved) }},
		{"core.load_us", func() error { _, err := core.LoadFile(modelPath); return err }},
		{"core.quantize_us", func() error { _, err := model.Quantize(); return err }},
	} {
		l.run(rung{name: c.name, unit: "us", parent: "lifecycle.runonce_ms", group: wlOnlineAdapt,
			mk: func(int) func() {
				return func() {
					if err := c.fn(); err != nil {
						l.fail("ladder: %s: %v", c.name, err)
					}
				}
			}})
	}
	blob := append([]byte(nil), saved.Bytes()...)

	// ---- baselines, allocate ------------------------------------------

	var qualityFits []reuseFit
	for _, f := range in.ReuseFits {
		if f.K == qualityK {
			qualityFits = append(qualityFits, f)
		}
	}
	for _, bl := range []struct {
		name string
		mk   func() baselines.Predictor
	}{
		{"baselines.nnls_fit_us", func() baselines.Predictor { return baselines.NewErnest() }},
		{"baselines.bell_fit_us", func() baselines.Predictor { return baselines.NewBell() }},
	} {
		l.run(rung{name: bl.name, unit: "us", group: wlTrainReuse,
			mk: func(i int) func() {
				f := qualityFits[i%len(qualityFits)]
				points := make([]baselines.Point, len(f.Split.Train))
				for j, e := range f.Split.Train {
					points[j] = baselines.Point{ScaleOut: e.ScaleOut, Runtime: e.RuntimeSec}
				}
				p := bl.mk()
				return func() {
					if err := p.Fit(points); err != nil {
						l.fail("ladder: %s: %v", bl.name, err)
					}
				}
			}})
	}

	engine, allocRes := allocate.NewEngine(), &allocate.Result{}
	l.run(rung{name: "allocate.sweep64_us", unit: "us", parent: "serve.handler_batch256_us", group: wlServeCold, allocs: true,
		mk: func(i int) func() {
			_, req, err := serve.ToAllocateRequest(in.AllocReqs[i%len(in.AllocReqs)])
			if err != nil {
				l.fail("ladder: converting an allocation request: %v", err)
			}
			return func() {
				if err := engine.AllocateInto(allocRes, infer, req); err != nil {
					l.fail("ladder: AllocateInto: %v", err)
				}
			}
		}})

	// ---- api: the JSON the handlers do ----------------------------------

	hotAnswer := mustMarshal(api.PredictResponse{RuntimeSec: 123.456, Cached: true})
	var answer api.PredictResponse
	if err := json.Unmarshal(hotAnswer, &answer); err != nil {
		return nil, err
	}
	batchAnswer := api.BatchResponse{Responses: make([]api.PredictResponse, batchItems)}
	for i := range batchAnswer.Responses {
		batchAnswer.Responses[i].RuntimeSec = 100 + rng.Float64()*900
	}
	for _, c := range []struct {
		name, unit, parent, group string
		slow                      bool
		mk                        func(i int) func()
	}{
		{"api.predict_decode_ns", "ns", "serve.handler_hit_ns", wlServeHot, false, func(i int) func() {
			body := in.Hot[i%nHot]
			return func() {
				var v api.PredictRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil {
					l.fail("ladder: decoding a predict body: %v", err)
				}
			}
		}},
		{"api.predict_encode_ns", "ns", "serve.handler_hit_ns", wlServeHot, false, func(int) func() {
			return func() { _ = json.NewEncoder(io.Discard).Encode(answer) }
		}},
		{"api.batch256_decode_us", "us", "serve.handler_batch256_us", wlServeCold, true, func(i int) func() {
			body := in.Cold[i%coldBatches]
			return func() {
				var v api.BatchRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil {
					l.fail("ladder: decoding a batch body: %v", err)
				}
			}
		}},
		{"api.batch256_encode_us", "us", "serve.handler_batch256_us", wlServeCold, false, func(int) func() {
			return func() { _ = json.NewEncoder(io.Discard).Encode(batchAnswer) }
		}},
	} {
		l.run(rung{name: c.name, unit: c.unit, parent: c.parent, group: c.group, slow: c.slow, mk: c.mk})
	}

	// ---- loadctl --------------------------------------------------------

	svc, limiter, newGate := ladderService(models)
	gate := newGate()
	l.run(rung{name: "loadctl.limiter_allow_ns", unit: "ns", parent: "serve.handler_hit_ns", group: wlServeHot, batch: 32,
		mk: func(int) func() {
			return func() {
				if ok, _ := limiter.Allow("ladder", time.Now()); !ok {
					l.fail("ladder: the limiter refused a request")
				}
			}
		}})
	l.run(rung{name: "loadctl.gate_acquire_release_ns", unit: "ns", parent: "serve.handler_hit_ns", group: wlServeHot, batch: 32,
		mk: func(int) func() {
			return func() {
				if err := gate.Acquire(ctx, loadctl.CostCheap); err != nil {
					l.fail("ladder: the gate refused a request: %v", err)
					return
				}
				gate.Release()
			}
		}})

	// ---- serve: Service, handler, loopback ------------------------------

	svc.AttachLoadControl(serve.LoadControl{Limiter: limiter, Gate: gate})
	attachObs(func(o *serve.Observability) { svc.AttachObs(o, nil) })
	warm := func(predict func(serve.Request) serve.Response) {
		for _, r := range hot {
			if resp := predict(r); resp.Err != nil {
				l.fail("ladder: warming the result cache: %v", resp.Err)
			}
		}
	}
	warm(func(r serve.Request) serve.Response { return svc.Predict(ctx, r.Key, r.Query) })

	l.run(rung{name: "serve.predict_hit_ns", unit: "ns", parent: "serve.handler_hit_ns", group: wlServeHot, batch: 8,
		mk: func(i int) func() {
			r := hot[i%nHot]
			return func() {
				if resp := svc.Predict(ctx, r.Key, r.Query); resp.Err != nil || !resp.Cached {
					l.fail("ladder: expected a cached answer, got cached=%v err=%v", resp.Cached, resp.Err)
				}
			}
		}})
	tracer := obs.NewTracer(obs.TracerOptions{SampleEvery: 1})
	// The computed answer at three depths, call by call: the forward
	// pass alone, Service.Predict around it, and the same traced.
	missPair := l.runPair(
		rung{name: "core.infer_single_ns", unit: "ns", parent: "serve.predict_miss_ns", group: wlOnlineAdapt,
			mk: func(i int) func() {
				q := hot[i%nHot].Query
				return func() {
					if _, err := infer.Predict(q.ScaleOut, q.Essential, q.Optional); err != nil {
						l.fail("ladder: InferModel.Predict: %v", err)
					}
				}
			}},
		rung{name: "serve.predict_miss_ns", unit: "ns", parent: "serve.handler_hit_ns", group: wlOnlineAdapt,
			mk: func(i int) func() {
				r := hot[i%nHot]
				svc.InvalidateResults(r.Key)
				return func() {
					if resp := svc.Predict(ctx, r.Key, r.Query); resp.Err != nil || resp.Cached {
						l.fail("ladder: expected a computed answer, got cached=%v err=%v", resp.Cached, resp.Err)
					}
				}
			}},
		rung{name: "serve.predict_miss_traced_ns", unit: "ns", parent: "serve.handler_hit_ns", group: wlServeHot,
			mk: func(i int) func() {
				r := hot[i%nHot]
				svc.InvalidateResults(r.Key)
				return func() {
					tr := tracer.StartRequest("")
					resp := svc.PredictTraced(ctx, r.Key, r.Query, tr)
					tracer.Finish(tr)
					if resp.Err != nil {
						l.fail("ladder: traced predict: %v", resp.Err)
					}
				}
			}})
	miss, traced := missPair[1], missPair[2]
	warm(func(r serve.Request) serve.Response { return svc.Predict(ctx, r.Key, r.Query) })

	invalidateAll := func(svcs ...*serve.Service) {
		for _, s := range svcs {
			for _, k := range in.Keys {
				s.InvalidateResults(serve.ModelKey{Job: k.Job, Env: k.Env})
			}
		}
	}
	coldReqs := make([][]serve.Request, coldBatches)
	for bi, reqs := range in.ColdReqs {
		coldReqs[bi] = toServeRequests(l, reqs)
	}
	l.run(rung{name: "serve.predict_batch256_us", unit: "us", parent: "serve.handler_batch256_us", group: wlServeCold, slow: true,
		mk: func(i int) func() {
			invalidateAll(svc)
			reqs := coldReqs[i%coldBatches]
			return func() {
				for _, resp := range svc.PredictBatch(ctx, reqs) {
					if resp.Err != nil {
						l.fail("ladder: PredictBatch: %v", resp.Err)
						return
					}
				}
			}
		}})

	handler := svc.Handler()
	l.run(rung{name: "serve.handler_hit_ns", unit: "ns", parent: "serve.loopback_hit_us", group: wlServeHot, allocs: true,
		mk: func(i int) func() { return l.handlerCall(handler, "/v1/predict", in.Hot[i%nHot]) }})
	l.run(rung{name: "serve.handler_batch256_us", unit: "us", parent: "shard.handler2_batch256_us", group: wlServeCold, slow: true,
		mk: func(i int) func() {
			invalidateAll(svc)
			return l.handlerCall(handler, "/v1/predict/batch", in.Cold[i%coldBatches])
		}})
	warm(func(r serve.Request) serve.Response { return svc.Predict(ctx, r.Key, r.Query) })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: loopback listener: %w", err)
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed on the Close below
	}()
	loop := newClient("http://"+ln.Addr().String(), 1)
	var loopBuf bytes.Buffer
	l.run(rung{name: "serve.loopback_hit_us", unit: "us", group: wlServeHot, allocs: true,
		mk: func(i int) func() {
			body := in.Hot[i%nHot]
			return func() {
				if status, _, err := loop.post("/v1/predict", "ladder", body, &loopBuf); err != nil || status != http.StatusOK {
					l.fail("ladder: loopback predict: status %d, %v", status, err)
				}
			}
		}})
	loop.close()
	_ = srv.Close()
	<-served

	// ---- serve: registry ------------------------------------------------

	l.run(rung{name: "serve.model_load_us", unit: "us", parent: "cmd.server_start_ms", group: wlOnlineAdapt,
		mk: func(int) func() {
			reg := serve.NewRegistry(serve.DirLoader(models), 0)
			return func() {
				if _, err := reg.Get(ctx, key0); err != nil {
					l.fail("ladder: cold Registry.Get: %v", err)
				}
			}
		}})

	fill := make([]serve.Request, serve.DefaultResultCap)
	for i := range fill {
		fill[i] = hot[0]
		fill[i].Query.ScaleOut = 1 + i
	}
	l.run(rung{name: "serve.swap_invalidate_us", unit: "us", parent: "lifecycle.runonce_ms", group: wlOnlineAdapt, slow: true,
		mk: func(int) func() {
			invalidateAll(svc)
			svc.PredictBatch(ctx, fill) // a full result cache, all of it key0's
			ref, err := svc.Registry().GetRef(ctx, key0)
			next, cerr := model.Clone()
			if err != nil || cerr != nil {
				l.fail("ladder: preparing a swap: %v %v", err, cerr)
				return func() {}
			}
			return func() {
				if _, ok := svc.Registry().Swap(key0, ref.Gen, next); !ok {
					l.fail("ladder: the registry refused a swap")
				}
				if n := svc.InvalidateResults(key0); n != len(fill) {
					l.fail("ladder: invalidation dropped %d results, want %d", n, len(fill))
				}
			}
		}})

	// ---- shard ------------------------------------------------------------

	clusters := map[int]*shard.Cluster{}
	shardSvcs := map[int][]*serve.Service{}
	for _, n := range []int{1, 2} {
		var cfgs []shard.NodeConfig
		for i := 0; i < n; i++ {
			s, _, g := ladderService(models)
			attachObs(func(o *serve.Observability) { s.AttachObs(o, obs.Labels{"shard": strconv.Itoa(i)}) })
			cfgs = append(cfgs, shard.NodeConfig{Service: s, Gate: g()})
			shardSvcs[n] = append(shardSvcs[n], s)
		}
		c, err := shard.New(cfgs, shard.Options{Limiter: loadctl.NewLimiter(loadctl.LimiterConfig{Rate: 1e6})})
		if err != nil {
			return nil, err
		}
		attachObs(c.AttachObs)
		warm(func(r serve.Request) serve.Response { return c.Predict(ctx, r) })
		clusters[n] = c
	}
	for _, n := range []int{1, 2} {
		h := clusters[n].Handler()
		l.run(rung{name: fmt.Sprintf("shard.handler%d_hit_ns", n), unit: "ns", parent: "serve.loopback_hit_us", group: wlServeCold,
			mk: func(i int) func() { return l.handlerCall(h, "/v1/predict", in.Hot[i%nHot]) }})
	}
	h2 := clusters[2].Handler()
	l.run(rung{name: "shard.handler2_batch256_us", unit: "us", group: wlServeCold, slow: true,
		mk: func(i int) func() {
			invalidateAll(shardSvcs[2]...)
			return l.handlerCall(h2, "/v1/predict/batch", in.Cold[i%coldBatches])
		}})

	c2 := clusters[2]
	c2.EnableReplication()
	owner := c2.Owner(key0.Job, key0.Env)
	version := uint64(1)
	l.run(rung{name: "shard.broadcast_apply_us", unit: "us", group: wlServeCold, slow: true,
		mk: func(int) func() {
			version++
			v := version
			return func() {
				c2.Broadcast(owner, key0, v, blob)
				for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
					if got, _ := shardSvcs[2][1-owner].Registry().Version(key0); got >= v {
						return
					}
					if time.Now().After(deadline) {
						l.fail("ladder: the peer never applied replicated version %d", v)
						return
					}
				}
			}
		}})
	c2.CloseReplication()

	// ---- store ------------------------------------------------------------

	sample := ring[0]
	now := time.Now()
	var neverDir string
	neverRecords := 0
	for _, p := range []struct {
		name, unit string
		policy     store.FsyncPolicy
		batch      int
		slow       bool
	}{
		{"store.append_never_ns", "ns", store.FsyncNever, 16, false},
		{"store.append_interval_ns", "ns", store.FsyncInterval, 16, false},
		{"store.append_always_us", "us", store.FsyncAlways, 1, true},
	} {
		dir := filepath.Join(work, "store-"+p.policy.String())
		st, err := store.Open(dir, store.Options{Fsync: p.policy})
		if err != nil {
			return nil, err
		}
		res := l.run(rung{name: p.name, unit: p.unit, parent: "lifecycle.observe_ns", group: wlOnlineAdapt, batch: p.batch, slow: p.slow,
			mk: func(int) func() {
				return func() {
					if err := st.AppendObservation(key0.Job, key0.Env, sample, now); err != nil {
						l.fail("ladder: WAL append (%s): %v", p.policy, err)
					}
				}
			}})
		if err := st.Close(); err != nil {
			return nil, err
		}
		if p.policy == store.FsyncNever {
			neverDir, neverRecords = dir, res.samples
		}
	}

	// Recovery as a restarting server pays it: Open (tail repair) plus
	// Replay of the WAL the append rung wrote. Closing the previous
	// instance is not part of it.
	var replayNS []float64
	var reopened *store.Store
	l.run(rung{name: "store.open_recover_ms", unit: "ms", parent: "cmd.server_start_ms", group: wlOnlineAdapt, slow: true,
		mk: func(int) func() {
			if reopened != nil {
				reopened.Close()
			}
			return func() {
				st, err := store.Open(neverDir, store.Options{Fsync: store.FsyncNever})
				if err != nil {
					l.fail("ladder: reopening the WAL: %v", err)
					return
				}
				reopened = st
				t0 := time.Now()
				records := 0
				err = st.Replay(store.ReplayHandler{Observation: func(string, string, core.Sample, time.Time) { records++ }})
				replayNS = append(replayNS, float64(time.Since(t0)))
				if err != nil || records != neverRecords {
					l.fail("ladder: replay delivered %d of %d records: %v", records, neverRecords, err)
				}
			}
		}})
	if reopened != nil {
		reopened.Close()
	}

	ckptStore, err := store.Open(filepath.Join(work, "store-ckpt"), store.Options{Fsync: store.FsyncInterval})
	if err != nil {
		return nil, err
	}
	ckptVersion := uint64(1)
	l.run(rung{name: "store.checkpoint_us", unit: "us", parent: "lifecycle.runonce_ms", group: wlOnlineAdapt, slow: true,
		mk: func(int) func() {
			ckptVersion++
			v := ckptVersion
			return func() {
				if err := ckptStore.CheckpointModel(key0.Job, key0.Env, v, blob); err != nil {
					l.fail("ladder: checkpoint: %v", err)
				}
			}
		}})

	// ---- lifecycle --------------------------------------------------------

	lcSvc, _, _ := ladderService(models)
	ctl := lifecycle.New(lcSvc.Registry(), lifecycle.Config{
		MinSamples: windowObs, BufferCap: ringCap, MaxStaleness: -1,
		Log: ckptStore, Checkpoint: ckptStore,
	})
	lcSvc.AttachObserver(ctl)
	observe := func(s core.Sample) {
		q := core.Query{ScaleOut: s.ScaleOut, Essential: s.Essential, Optional: s.Optional}
		if err := ctl.Observe(ctx, key0, q, s.RuntimeSec); err != nil {
			l.fail("ladder: Observe: %v", err)
		}
	}
	l.run(rung{name: "lifecycle.observe_ns", unit: "ns", parent: "serve.handler_hit_ns", group: wlOnlineAdapt, batch: 8,
		mk: func(i int) func() {
			s := ring[i%ringCap]
			return func() { observe(s) }
		}})
	// Leave the ring as online-adapt's looks — eight scattered windows —
	// and digested, so every timed run below sees one fresh window around
	// what the registry's current version predicts.
	for _, s := range windows {
		observe(s)
	}
	ctl.RunOnce()
	current := func(q core.Query) (float64, error) {
		resp := lcSvc.Predict(ctx, key0, q)
		return resp.RuntimeSec, resp.Err
	}
	l.run(rung{name: "lifecycle.runonce_ms", unit: "ms", group: wlOnlineAdapt, slow: true,
		mk: func(i int) func() {
			for _, s := range window(i, current) {
				observe(s)
			}
			return func() {
				if n := ctl.RunOnce(); n != 1 {
					l.fail("ladder: RunOnce installed %d versions, want 1", n)
				}
			}
		}})
	ctl.Stop()
	if err := ckptStore.Close(); err != nil {
		return nil, err
	}

	// Derived numbers.
	if gemm.median > 0 {
		l.results = append(l.results, rungResult{rung: rung{name: "mat.gemm256_gflops", unit: "gflops", group: wlTrainReuse},
			median: 2 * 256 * 256 * 256 / (gemm.median * 1e3), samples: gemm.samples})
	}
	if len(replayNS) > 0 {
		l.results = append(l.results, rungResult{rung: rung{name: "store.replay_krec_per_s", unit: "krec/s", group: wlOnlineAdapt},
			median: float64(neverRecords) / (median(replayNS) / 1e9) / 1e3, samples: len(replayNS)})
	}
	l.results = append(l.results, rungResult{rung: rung{name: "obs.trace_overhead_ns", unit: "ns", group: wlServeHot},
		median: traced.median - miss.median, samples: traced.samples})
	return l, l.err
}

// metrics returns the ladder numbers of one workload's rungs as layer
// metrics; an empty group selects every rung.
func (l *ladder) metrics(group string) []Metric {
	var out []Metric
	for _, r := range l.results {
		if group != "" && r.group != group {
			continue
		}
		out = append(out, Metric{Name: r.name, Kind: kindLayer, Unit: r.unit, Value: r.median, Samples: r.samples})
		if r.allocs {
			base := r.name[:len(r.name)-len(r.unit)-1]
			out = append(out, Metric{Name: base + "_allocs", Kind: kindLayer, Unit: "count", Value: r.mallocs, Samples: min(r.samples, 200)})
		}
	}
	return out
}

// printChains prints the ladder as deltas: each rung over the rung it
// contains.
func (l *ladder) printChains(w io.Writer) {
	chains := [][]string{
		{"serve.loopback_hit_us", "serve.handler_hit_ns", "serve.predict_hit_ns"},
		{"serve.handler_hit_ns", "serve.predict_miss_ns", "core.infer_single_ns"},
		{"shard.handler2_hit_ns", "shard.handler1_hit_ns", "serve.handler_hit_ns"},
		{"shard.handler2_batch256_us", "serve.handler_batch256_us", "serve.predict_batch256_us", "core.infer_batch256_us", "nn.infer32_forward_us"},
		{"lifecycle.runonce_ms", "core.finetune_64_ms"},
	}
	inNS := func(r rungResult) float64 { return r.median * float64(unitDuration(r.unit)) }
	for _, chain := range chains {
		fmt.Fprintf(w, "ladder:")
		for i, name := range chain {
			r, ok := l.result(name)
			if !ok {
				continue
			}
			if i > 0 {
				fmt.Fprintf(w, "  >")
			}
			fmt.Fprintf(w, " %s %.4g %s", name, r.median, r.unit)
		}
		fmt.Fprintln(w)
		for i := 0; i+1 < len(chain); i++ {
			up, ok1 := l.result(chain[i])
			down, ok2 := l.result(chain[i+1])
			if !ok1 || !ok2 {
				continue
			}
			line := fmt.Sprintf("   %s +%.2f us", chain[i], (inNS(up)-inNS(down))/1e3)
			if up.allocs && down.allocs {
				line += fmt.Sprintf(" / %+.0f allocs", up.mallocs-down.mallocs)
			} else if up.allocs {
				line += fmt.Sprintf(" (%.0f allocs in all)", up.mallocs)
			}
			fmt.Fprintf(w, "%s over %s\n", line, chain[i+1])
		}
	}
}

// writeTraces writes trace-<workload>.json into dir, spans in start
// order.
func (l *ladder) writeTraces(dir string, groups []string) error {
	for _, g := range groups {
		spans := l.spans[g]
		sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
		b, err := json.Marshal(spans)
		if err != nil {
			return fmt.Errorf("bench: encoding spans: %w", err)
		}
		if err := os.WriteFile(filepath.Join(dir, "trace-"+g+".json"), b, 0o644); err != nil {
			return fmt.Errorf("bench: writing spans: %w", err)
		}
	}
	return nil
}
