package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/allocate"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/freelist"
	"repro/internal/loadctl"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Options tunes a Service.
type Options struct {
	// ModelCap bounds the resident models (<= 0: DefaultModelCap).
	ModelCap int
	// ResultCap bounds the memoized prediction results
	// (<= 0: DefaultResultCap).
	ResultCap int
}

// Request is one prediction request: which model to use and what to ask.
type Request struct {
	Key   ModelKey
	Query core.Query
}

// Response carries the per-request outcome of a batch.
type Response struct {
	// RuntimeSec is the predicted runtime in seconds (valid when Err is nil).
	RuntimeSec float64
	// Cached reports whether the result came from the result cache.
	Cached bool
	// Err is the per-request failure, if any.
	Err error
}

// Observer ingests live runtime observations for online model
// improvement. The lifecycle controller implements it; the service
// only forwards, so serving stays decoupled from how (or whether)
// observations feed back into models. Implementations should honor
// ctx: an observation whose request deadline already passed must not
// pay for a durable-log append the caller will never see acknowledged.
type Observer interface {
	Observe(ctx context.Context, key ModelKey, q core.Query, runtimeSec float64) error
}

// SwapNotifier is implemented by observers that hot-swap model
// versions. AttachObserver uses it to subscribe the service's result
// cache invalidation, so memoized predictions of a replaced version
// can never outlive it.
type SwapNotifier interface {
	OnSwap(fn func(key ModelKey, version uint64))
}

// LifecycleStatser is an Observer that reports online-learning
// counters; they surface as the "lifecycle" block of /v1/stats.
type LifecycleStatser interface {
	LifecycleStats() api.LifecycleStats
}

// ErrObserveDisabled is returned by Observe when no observer is
// attached (the server runs without online fine-tuning).
var ErrObserveDisabled = errors.New("serve: observation ingestion disabled")

// ErrObserveCapacity marks observation rejections caused by server-side
// capacity limits (e.g. the lifecycle controller's distinct-key bound)
// rather than a malformed request. Observers wrap it so the HTTP layer
// can answer 429 instead of 400.
var ErrObserveCapacity = errors.New("serve: observation capacity exhausted")

// ErrModelUnavailable marks failures to materialize the requested model
// (missing or corrupt model file, loader fault) as opposed to a
// malformed request, so the HTTP layer can answer 404 instead of 400.
var ErrModelUnavailable = errors.New("serve: model unavailable")

// Service answers runtime predictions against a registry of models,
// memoizing repeated queries and fanning batches across models. It is
// safe for concurrent use.
type Service struct {
	reg     *Registry
	results *resultCache

	observer atomic.Pointer[Observer]
	storeRef atomic.Pointer[StoreStatser]
	loadctl  atomic.Pointer[LoadControl]
	obsRef   atomic.Pointer[Observability]

	// draining flips once shutdown starts: /healthz answers 503 so load
	// balancers stop routing here while in-flight requests finish.
	draining atomic.Bool

	// Counters are obs types (one atomic add per increment) so the same
	// cells back Stats() — the /v1/stats body — and, once AttachObs
	// registers them, the /metrics exposition. No label lookups on any
	// hot path.
	requests, calls          obs.Counter
	resultHits, resultMisses obs.Counter
	latency                  *obs.Hist

	allocCalls, allocErrors         obs.Counter
	allocViolations, allocFallbacks obs.Counter
	allocLatency                    *obs.Hist

	gateBypassed    obs.Counter
	deadlineRejects obs.Counter
}

// LoadControl is the overload-protection configuration threaded in
// front of the POST endpoints: a per-client rate limiter (429) and an
// admission gate (503). Either may be nil to disable it. Client-requested
// deadlines are capped at DefaultMaxDeadline either way.
type LoadControl struct {
	// Limiter rate-limits per client key (X-API-Key header, falling
	// back to the remote address) before the request body is read.
	Limiter *loadctl.Limiter
	// Gate bounds concurrently served requests. Cache-hit predictions
	// bypass it entirely — serving a memoized float must never queue
	// behind expensive work.
	Gate *loadctl.Gate
}

// DefaultMaxDeadline caps the client-supplied X-Deadline-Ms budget.
const DefaultMaxDeadline = 30 * time.Second

// AttachLoadControl arms overload protection. Attach before serving
// traffic. A POST request meets it in this order: rate limiter (headers
// only, so a limited client is answered before its body is read), body
// decode, deadline-derived context, then inside the Admit* call the
// result-cache bypass check and the admission gate.
func (s *Service) AttachLoadControl(lc LoadControl) { s.loadctl.Store(&lc) }

// LoadControl returns the attached load control, zero when there is none.
func (s *Service) LoadControl() LoadControl {
	if lc := s.loadctl.Load(); lc != nil {
		return *lc
	}
	return LoadControl{}
}

// CountDeadlineReject counts one request answered 504.
func (s *Service) CountDeadlineReject() { s.deadlineRejects.Add(1) }

// SetDraining marks the service as draining (or not): /healthz answers
// 503 so load balancers and orchestrators stop sending new traffic
// while in-flight requests complete. The serve command flips it as the
// first step of graceful shutdown.
func (s *Service) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether shutdown drain has started.
func (s *Service) Draining() bool { return s.draining.Load() }

// NewService builds a service loading models through loader.
func NewService(loader Loader, opts Options) *Service {
	s := &Service{
		reg:          NewRegistry(loader, opts.ModelCap),
		results:      newResultCache(opts.ResultCap),
		latency:      obs.NewHist(),
		allocLatency: obs.NewHist(),
	}
	return s
}

// Allocate answers a resource-allocation query against key's model: one
// batched sweep over the candidate scale-outs, isotonic smoothing, and
// the cheapest-SLO-satisfying selection (see internal/allocate). The
// model is resolved through GetRef, so an allocation always runs on the
// latest hot-swapped version, and its reported fine-tune support drives
// the engine's interpolation fallback.
func (s *Service) Allocate(ctx context.Context, key ModelKey, req allocate.Request) (*allocate.Result, error) {
	start := time.Now()
	defer func() {
		s.allocLatency.Observe(time.Since(start))
		s.allocCalls.Inc()
	}()
	ref, err := s.reg.GetRef(ctx, key)
	if err != nil {
		s.allocErrors.Add(1)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("%w: %w", ErrModelUnavailable, err)
	}
	// The sweep is one bounded forward pass; re-checking the deadline
	// here (after a possible cold load) is the last cheap abandon point
	// before the GEMM path.
	if err := ctx.Err(); err != nil {
		s.allocErrors.Add(1)
		return nil, err
	}
	e := engines.Get()
	res, err := e.Allocate(ref.Model, req)
	engines.Put(e)
	if err != nil {
		s.allocErrors.Add(1)
		return nil, err
	}
	if !res.Feasible {
		s.allocViolations.Add(1)
	}
	if res.Fallback {
		s.allocFallbacks.Add(1)
	}
	return res, nil
}

// Registry exposes the underlying model registry (e.g. for warm-up).
func (s *Service) Registry() *Registry { return s.reg }

// AttachObserver wires an observation sink into the service: Observe
// calls (and POST /v1/observe) forward to it. When the observer also
// notifies about hot-swaps, the service subscribes its result-cache
// invalidation so stale memoized predictions are dropped the moment a
// new model version is installed. Attach before serving traffic.
func (s *Service) AttachObserver(o Observer) {
	if sn, ok := o.(SwapNotifier); ok {
		sn.OnSwap(func(key ModelKey, version uint64) {
			s.InvalidateResults(key)
		})
	}
	s.observer.Store(&o)
}

// Observe forwards a live runtime observation to the attached
// observer, or reports ErrObserveDisabled when there is none.
func (s *Service) Observe(ctx context.Context, key ModelKey, q core.Query, runtimeSec float64) error {
	o := s.observer.Load()
	if o == nil {
		return ErrObserveDisabled
	}
	return (*o).Observe(ctx, key, q, runtimeSec)
}

// lifecycleStats snapshots the attached observer's counters, nil when
// it reports none.
func (s *Service) lifecycleStats() *api.LifecycleStats {
	o := s.observer.Load()
	if o == nil {
		return nil
	}
	ls, ok := (*o).(LifecycleStatser)
	if !ok {
		return nil
	}
	st := ls.LifecycleStats()
	return &st
}

// InvalidateResults drops every memoized result of key's model and
// reports how many were dropped. Hot-swaps call it through the
// observer subscription; it is also safe to call directly (e.g. after
// replacing a model file on disk and evicting the key).
func (s *Service) InvalidateResults(key ModelKey) int {
	return s.results.invalidatePrefix(string(appendKeyPrefix(nil, key)))
}

// lookup reads (key, q) from the result cache without touching the
// registry or a model. Allocation-free.
func (s *Service) lookup(key ModelKey, q core.Query) (float64, bool) {
	var buf [fpBufLen]byte
	return s.results.get(appendFingerprint(buf[:0], key, q))
}

// PredictCached answers (key, q) if the result cache holds it, counted
// as a prediction and as a gate bypass; a miss counts nothing and leaves
// the work to Predict. It needs no context: the value is in hand. This is
// how cache hits pass the admission gate by — they cost microseconds, and
// keeping them flowing under overload is the point of graceful
// degradation.
func (s *Service) PredictCached(key ModelKey, q core.Query) (Response, bool) {
	start := time.Now()
	v, ok := s.lookup(key, q)
	if !ok {
		return Response{}, false
	}
	s.resultHits.Add(1)
	s.gateBypassed.Add(1)
	s.observe(start, 1)
	return Response{RuntimeSec: v, Cached: true}, true
}

// Predict answers a single request. A cache hit ignores ctx (the value
// is already in hand); a miss respects its deadline before touching
// the model.
func (s *Service) Predict(ctx context.Context, key ModelKey, q core.Query) Response {
	return s.PredictTraced(ctx, key, q, nil)
}

// PredictTraced is Predict with an optional request trace: on a cache
// miss it records the registry_load and predict pipeline stages. A nil
// trace costs only the nil checks, keeping the warm path 0 allocs/op.
func (s *Service) PredictTraced(ctx context.Context, key ModelKey, q core.Query, tr *obs.Trace) Response {
	start := time.Now()
	defer s.observe(start, 1)
	return s.predictOne(ctx, key, q, tr)
}

func (s *Service) predictOne(ctx context.Context, key ModelKey, q core.Query, tr *obs.Trace) Response {
	// The fingerprint stays in the stack buffer until the answer is
	// stored under it.
	var buf [fpBufLen]byte
	return s.predictFingerprinted(ctx, key, q, appendFingerprint(buf[:0], key, q), tr)
}

func (s *Service) predictFingerprinted(ctx context.Context, key ModelKey, q core.Query, fp []byte, tr *obs.Trace) Response {
	hash := hashFingerprint(fp)
	if v, ok := s.results.lookup(hash, fp); ok {
		s.resultHits.Add(1)
		return Response{RuntimeSec: v, Cached: true}
	}
	s.resultMisses.Add(1)
	// A blown deadline abandons the request before the model load and
	// forward pass — the caller is gone; computing would only steal
	// capacity from live requests.
	if err := ctx.Err(); err != nil {
		return Response{Err: err}
	}
	// Snapshot the invalidation epoch before touching the model: if a
	// hot-swap invalidates this key while the prediction is in flight,
	// the epoch moves and the stale value is not memoized.
	epoch := s.results.snapshot()
	t0 := tr.Clock()
	sm, err := s.reg.Get(ctx, key)
	tr.Record(obs.StageRegistryLoad, -1, t0)
	if err != nil {
		return Response{Err: err}
	}
	t0 = tr.Clock()
	v, err := sm.Predict(q)
	tr.Record(obs.StagePredict, -1, t0)
	if err != nil {
		return Response{Err: err}
	}
	s.results.store(hash, fp, v, epoch)
	return Response{RuntimeSec: v}
}

// missGroup gathers the batch positions that share one distinct
// (model, query) fingerprint, so a query repeated within a batch costs
// one model row. The first position is held inline: in the common case
// of a batch with no repeated queries, recording it allocates nothing.
type missGroup struct {
	// The fingerprint is fps[fpOff:fpOff+fpLen] of the batch's scratch,
	// hash its hash.
	hash         uint64
	fpOff, fpLen int
	query        core.Query
	first        int
	rest         []int
}

// forEachIdx calls fn for every batch position in the group.
func (g *missGroup) forEachIdx(fn func(i int)) {
	fn(g.first)
	for _, i := range g.rest {
		fn(i)
	}
}

// batchScratch holds the per-PredictBatch grouping state, kept on a
// free list so a steady stream of batches reuses the fingerprint bytes,
// the missGroup arena, the per-model lists and the query/prediction
// staging slices instead of reallocating them.
type batchScratch struct {
	// fps holds the fingerprints of the batch's distinct misses back to
	// back; a hit's or a repeat's is built at its end and dropped again.
	fps   []byte
	arena []missGroup
	// seen is the open-addressed index (position in arena + 1, 0 empty)
	// that finds an earlier miss with the same fingerprint: by the hash
	// the cache lookup was given, confirmed by comparing the bytes.
	seen []int32
	// byKey[keyIdx[key]] lists the groups of one model, keys in order of
	// first appearance. byKey keeps the emptied lists of earlier batches
	// past len(keys).
	keyIdx map[ModelKey]int
	keys   []ModelKey
	byKey  [][]*missGroup
	offs   []int
	qs     []core.Query
	preds  []float64
}

// maxIdleScratch is the most a batch scratch or an allocation engine
// may hold and still go back to its list. A 1024-item batch holds about
// 0.3 MB, an engine of MaxCandidates candidates 0.3 MB.
const maxIdleScratch = 1 << 20

var (
	batchScratches = freelist.New(func() *batchScratch {
		return &batchScratch{keyIdx: map[ModelKey]int{}}
	}, maxIdleScratch)
	// engines lend allocation engines, whose sweep and smoothing buffers
	// warm allocations reuse.
	engines = freelist.New(allocate.NewEngine, maxIdleScratch)
)

// fp returns the fingerprint of g.
func (sc *batchScratch) fp(g *missGroup) []byte { return sc.fps[g.fpOff : g.fpOff+g.fpLen] }

// group returns the miss group of fingerprint fp, the last bytes of
// sc.fps, and whether the batch had it already; a new group keeps the
// bytes, a known one gives them back.
func (sc *batchScratch) group(hash uint64, fp []byte) (*missGroup, bool) {
	mask := len(sc.seen) - 1
	i := int(hash) & mask
	for ; sc.seen[i] != 0; i = (i + 1) & mask {
		if g := &sc.arena[sc.seen[i]-1]; g.hash == hash && bytes.Equal(sc.fp(g), fp) {
			return g, true
		}
	}
	// The arena never reallocates mid-batch (cap >= len(reqs)), so the
	// *missGroup pointers handed out stay valid.
	sc.arena = append(sc.arena, missGroup{hash: hash, fpOff: len(sc.fps) - len(fp), fpLen: len(fp)})
	sc.seen[i] = int32(len(sc.arena))
	return &sc.arena[len(sc.arena)-1], false
}

// Reset clears the scratch. The arena and query staging are zeroed so
// idle memory never pins caller property slices across batches.
func (sc *batchScratch) Reset() {
	sc.fps = sc.fps[:0]
	clear(sc.arena)
	sc.arena = sc.arena[:0]
	clear(sc.keyIdx)
	clear(sc.keys)
	sc.keys = sc.keys[:0]
	for k := range sc.byKey {
		sc.byKey[k] = sc.byKey[k][:0]
	}
	sc.offs = sc.offs[:0]
	clear(sc.qs)
	sc.qs = sc.qs[:0]
	sc.preds = sc.preds[:0]
}

// Bytes reports what the scratch holds: every buffer by capacity, and
// the key index as one key and position per key it has room for.
func (sc *batchScratch) Bytes() int {
	const ptr, word = int(unsafe.Sizeof(uintptr(0))), int(unsafe.Sizeof(int(0)))
	keySize := int(unsafe.Sizeof(ModelKey{}))
	n := cap(sc.fps) + cap(sc.arena)*int(unsafe.Sizeof(missGroup{})) + 4*cap(sc.seen) +
		cap(sc.keys)*(2*keySize+word) + cap(sc.byKey)*int(unsafe.Sizeof([]*missGroup{})) +
		word*cap(sc.offs) + cap(sc.qs)*int(unsafe.Sizeof(core.Query{})) + 8*cap(sc.preds)
	for _, l := range sc.byKey[:cap(sc.byKey)] {
		n += ptr * cap(l)
	}
	return n
}

// PredictBatch answers many requests at once: result-cache hits are
// served immediately, the remaining distinct queries are grouped by
// model and run as one forward pass per model, with model groups fanned
// across CPU cores. Responses align with the input order. Cache hits
// are served regardless of ctx; the per-model forward passes check the
// deadline before loading a model and before entering the GEMM path,
// so a request that has already blown its budget is abandoned with
// ctx's error instead of burning compute.
func (s *Service) PredictBatch(ctx context.Context, reqs []Request) []Response {
	return s.PredictBatchInto(ctx, nil, reqs)
}

// PredictBatchInto is PredictBatch answering into dst's storage when it
// has the capacity (its contents are overwritten), for a caller that
// keeps a response slice across batches.
func (s *Service) PredictBatchInto(ctx context.Context, dst []Response, reqs []Request) []Response {
	start := time.Now()
	defer s.observe(start, len(reqs))

	out := slices.Grow(dst[:0], len(reqs))[:len(reqs)]
	clear(out)
	sc := batchScratches.Get()
	defer batchScratches.Put(sc)
	if cap(sc.arena) < len(reqs) {
		sc.arena = make([]missGroup, 0, len(reqs))
	}
	slots := indexSlots(len(reqs))
	sc.seen = slices.Grow(sc.seen[:0], slots)[:slots]
	clear(sc.seen)
	for i, req := range reqs {
		// Each item's fingerprint is built once and hashed once; the
		// hash serves the cache lookup, the in-batch grouping and, after
		// the forward pass, the insert.
		mark := len(sc.fps)
		sc.fps = appendFingerprint(sc.fps, req.Key, req.Query)
		fp := sc.fps[mark:]
		hash := hashFingerprint(fp)
		if v, ok := s.results.lookup(hash, fp); ok {
			s.resultHits.Add(1)
			out[i] = Response{RuntimeSec: v, Cached: true}
			sc.fps = sc.fps[:mark]
			continue
		}
		s.resultMisses.Add(1)
		g, known := sc.group(hash, fp)
		if known {
			g.rest = append(g.rest, i)
			sc.fps = sc.fps[:mark]
			continue
		}
		g.query, g.first = req.Query, i
		k, ok := sc.keyIdx[req.Key]
		if !ok {
			k = len(sc.keys)
			sc.keyIdx[req.Key] = k
			sc.keys = append(sc.keys, req.Key)
			if k == len(sc.byKey) {
				sc.byKey = append(sc.byKey, nil)
			}
		}
		sc.byKey[k] = append(sc.byKey[k], g)
	}
	keys := sc.keys

	// Carve per-key staging regions out of shared slices up front, so
	// the parallel workers below write disjoint ranges with no
	// allocation per model group.
	misses := len(sc.arena)
	if cap(sc.qs) < misses {
		sc.qs = make([]core.Query, misses)
		sc.preds = make([]float64, misses)
	}
	sc.qs = sc.qs[:misses]
	sc.preds = sc.preds[:misses]
	off := 0
	for k := range keys {
		sc.offs = append(sc.offs, off)
		off += len(sc.byKey[k])
	}

	// One epoch snapshot covers the whole fan-out: every model read
	// happens after it, so a concurrent swap+invalidation moves the
	// epoch and blocks memoization of any possibly-stale group result.
	epoch := s.results.snapshot()
	parallel.ForEach(len(keys), 0, func(k int) {
		key := keys[k]
		miss := sc.byKey[k]
		region := sc.offs[k]
		if err := ctx.Err(); err != nil {
			for _, g := range miss {
				g.forEachIdx(func(i int) { out[i] = Response{Err: err} })
			}
			return
		}
		sm, err := s.reg.Get(ctx, key)
		if err != nil {
			for _, g := range miss {
				g.forEachIdx(func(i int) { out[i] = Response{Err: err} })
			}
			return
		}
		// Validate per request so one malformed query fails alone
		// instead of poisoning the whole forward pass.
		valid := miss[:0]
		for _, g := range miss {
			if err := sm.Validate(g.query); err != nil {
				g.forEachIdx(func(i int) { out[i] = Response{Err: err} })
				continue
			}
			valid = append(valid, g)
		}
		if len(valid) == 0 {
			return
		}
		// Last abandon point before the forward pass: the model is in
		// hand, but a dead request must not enter the GEMM path.
		if err := ctx.Err(); err != nil {
			for _, g := range valid {
				g.forEachIdx(func(i int) { out[i] = Response{Err: err} })
			}
			return
		}
		qs := sc.qs[region : region+len(valid)]
		for j, g := range valid {
			qs[j] = g.query
		}
		preds := sc.preds[region : region+len(valid)]
		if err := sm.PredictBatchInto(preds, qs); err != nil {
			for _, g := range valid {
				g.forEachIdx(func(i int) { out[i] = Response{Err: err} })
			}
			return
		}
		for j, g := range valid {
			s.results.store(g.hash, sc.fp(g), preds[j], epoch)
			v := preds[j]
			g.forEachIdx(func(i int) { out[i] = Response{RuntimeSec: v} })
		}
	})
	return out
}

func (s *Service) observe(start time.Time, n int) {
	s.latency.Observe(time.Since(start))
	s.calls.Inc()
	s.requests.Add(int64(n))
}

// Stats snapshots the service counters as the body of GET /v1/stats;
// the shard router embeds one per shard.
func (s *Service) Stats() api.Stats {
	rs := s.reg.Stats()
	st := api.Stats{
		SchemaVersion:   api.StatsSchemaVersion,
		Requests:        s.requests.Load(),
		Calls:           s.calls.Load(),
		ResultHits:      s.resultHits.Load(),
		ResultMisses:    s.resultMisses.Load(),
		ResultCacheLen:  s.results.len(),
		MeanLatencyUsec: usec(s.latency.Mean()),
		ModelHits:       rs.Hits,
		ModelMisses:     rs.Misses,
		ModelLoads:      rs.Loads,
		ModelLoadErrors: rs.LoadErrors,
		ModelEvictions:  rs.Evictions,
		ModelSwaps:      rs.Swaps,
		Alloc: api.AllocStats{
			Requests:        s.allocCalls.Load(),
			Errors:          s.allocErrors.Load(),
			Violations:      s.allocViolations.Load(),
			Fallbacks:       s.allocFallbacks.Load(),
			MeanLatencyUsec: usec(s.allocLatency.Mean()),
		},
		Lifecycle: s.lifecycleStats(),
		Store:     s.storeStats(),
	}
	if lc := s.loadctl.Load(); lc != nil {
		l := &api.LoadCtlStats{
			GateBypassed:    s.gateBypassed.Load(),
			DeadlineRejects: s.deadlineRejects.Load(),
			Draining:        s.draining.Load(),
		}
		if lc.Limiter != nil {
			ls := lc.Limiter.Stats()
			l.RateLimited, l.Clients, l.ClientsEvicted = ls.Limited, ls.Clients, ls.Evicted
		}
		if lc.Gate != nil {
			gs := lc.Gate.Stats()
			l.Admitted, l.Queued, l.MeanQueueWaitUsec = gs.Admitted, gs.Queued, usec(gs.MeanQueueWait)
			l.ShedQueueFull, l.ShedTimeout, l.ShedCanceled = gs.ShedQueueFull, gs.ShedTimeout, gs.ShedCanceled
		}
		st.LoadCtl = l
	}
	if o := s.obsRef.Load(); o != nil {
		ob := &api.ObsStats{
			LatencyP50Usec:  usec(s.latency.Quantile(0.5)),
			LatencyP99Usec:  usec(s.latency.Quantile(0.99)),
			LatencyP999Usec: usec(s.latency.Quantile(0.999)),
		}
		if o.Metrics != nil {
			ob.MetricSeries = o.Metrics.NumSeries()
		}
		ob.TracesSampled, ob.TracesFinished = o.Tracer.Stats()
		st.Obs = ob
	}
	return st
}

// usec renders a duration as the float microseconds of the wire.
func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
