package serve

import (
	"log/slog"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// Observability bundles the telemetry substrate threaded through the
// serving tier: the metrics registry behind GET /metrics, the request
// tracer behind X-Trace-Id and GET /v1/debug/slow, and the structured
// logger. Any field may be nil to disable that facility.
type Observability struct {
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Log     *slog.Logger
}

// Logger returns the configured logger or a no-op one, so callers
// never nil-check before logging.
func (o *Observability) Logger() *slog.Logger {
	if o == nil || o.Log == nil {
		return obs.NopLogger()
	}
	return o.Log
}

// AttachObs wires the observability layer into the service and, when a
// metrics registry is present, registers every service metric under
// labels (e.g. {"shard": "0"} in a sharded deployment; nil for a
// single-shard node). Attach once, before serving traffic: metric
// registration is not idempotent by design — a double registration is
// a wiring bug and panics.
func (s *Service) AttachObs(o *Observability, labels obs.Labels) {
	s.obsRef.Store(o)
	if o == nil || o.Metrics == nil {
		return
	}
	s.registerMetrics(o.Metrics, labels)
}

// Obs returns the attached observability layer, or nil.
func (s *Service) Obs() *Observability { return s.obsRef.Load() }

// registerMetrics exposes the service's counter cells plus scrape-time
// snapshots of the registry, lifecycle, store, and load-control tiers.
// The counter cells are the very atomics the hot path increments — no
// parallel bookkeeping; the func-backed series read the snapshots of
// components that stay obs-free (loadctl) or are attached after startup
// (lifecycle, store) — the blocks /v1/stats shows — nil-safe at every
// scrape.
func (s *Service) registerMetrics(reg *obs.Registry, labels obs.Labels) {
	reg.RegisterCounter("bellamy_predict_requests_total",
		"Individual predictions asked for (batch items included).", labels, &s.requests)
	reg.RegisterCounter("bellamy_predict_calls_total",
		"Predict/PredictBatch invocations.", labels, &s.calls)
	reg.RegisterCounter("bellamy_result_cache_hits_total",
		"Predictions answered from the result cache.", labels, &s.resultHits)
	reg.RegisterCounter("bellamy_result_cache_misses_total",
		"Predictions that missed the result cache.", labels, &s.resultMisses)
	reg.RegisterGaugeFunc("bellamy_result_cache_entries",
		"Memoized prediction results currently resident.", labels,
		func() float64 { return float64(s.results.len()) })
	reg.RegisterGaugeFunc("bellamy_result_cache_bytes",
		"Heap held by the result cache: index, entries and key bytes.", labels,
		func() float64 { return float64(s.results.bytes()) })
	reg.RegisterHist("bellamy_predict_latency_seconds",
		"Wall-clock latency of Predict/PredictBatch calls.", labels, s.latency)
	reg.RegisterCounter("bellamy_gate_bypassed_total",
		"Cache-hit predictions that skipped the admission gate.", labels, &s.gateBypassed)
	reg.RegisterCounter("bellamy_deadline_rejects_total",
		"Requests answered 504 because their budget ran out server-side.", labels, &s.deadlineRejects)
	reg.RegisterGaugeFunc("bellamy_draining",
		"1 while shutdown drain is in progress, else 0.", labels,
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	reg.RegisterCounter("bellamy_alloc_requests_total",
		"Allocate calls that reached the engine.", labels, &s.allocCalls)
	reg.RegisterCounter("bellamy_alloc_errors_total",
		"Allocate calls that failed.", labels, &s.allocErrors)
	reg.RegisterCounter("bellamy_alloc_violations_total",
		"Allocations where no candidate met the SLO.", labels, &s.allocViolations)
	reg.RegisterCounter("bellamy_alloc_fallbacks_total",
		"Allocations answered by the interpolation fallback.", labels, &s.allocFallbacks)
	reg.RegisterHist("bellamy_alloc_latency_seconds",
		"Wall-clock latency of Allocate calls.", labels, s.allocLatency)

	for _, m := range []struct {
		name, help string
		read       func(RegistryStats) int64
	}{
		{"bellamy_model_hits_total", "Model registry hits.", func(r RegistryStats) int64 { return r.Hits }},
		{"bellamy_model_misses_total", "Model registry misses.", func(r RegistryStats) int64 { return r.Misses }},
		{"bellamy_model_loads_total", "Models loaded from disk.", func(r RegistryStats) int64 { return r.Loads }},
		{"bellamy_model_load_errors_total", "Model load failures.", func(r RegistryStats) int64 { return r.LoadErrors }},
		{"bellamy_model_evictions_total", "Models evicted by the LRU cap.", func(r RegistryStats) int64 { return r.Evictions }},
		{"bellamy_model_swaps_total", "Hot-swapped model versions installed.", func(r RegistryStats) int64 { return r.Swaps }},
		{"bellamy_infer_property_rows_total", "Property values of the predictions computed by a model.", func(r RegistryStats) int64 { return r.PropertyRows }},
		{"bellamy_infer_distinct_rows_total", "Rows the property encoder ran on for them: each distinct value of a call once.", func(r RegistryStats) int64 { return r.DistinctRows }},
	} {
		read := m.read
		reg.RegisterCounterFunc(m.name, m.help, labels, func() int64 { return read(s.reg.Stats()) })
	}

	for _, m := range []struct {
		name, help string
		read       func(*api.LifecycleStats) int64
	}{
		{"bellamy_lifecycle_observations_total", "Accepted runtime observations.", func(l *api.LifecycleStats) int64 { return l.Observations }},
		{"bellamy_lifecycle_rejected_total", "Observations dropped in validation.", func(l *api.LifecycleStats) int64 { return l.Rejected }},
		{"bellamy_lifecycle_finetunes_total", "Fine-tune runs.", func(l *api.LifecycleStats) int64 { return l.Finetunes }},
		{"bellamy_lifecycle_finetune_errors_total", "Failed fine-tune attempts.", func(l *api.LifecycleStats) int64 { return l.FinetuneErrors }},
		{"bellamy_lifecycle_swaps_total", "Fine-tuned versions installed.", func(l *api.LifecycleStats) int64 { return l.Swaps }},
	} {
		read := m.read
		reg.RegisterCounterFunc(m.name, m.help, labels, func() int64 {
			if ls := s.lifecycleStats(); ls != nil {
				return read(ls)
			}
			return 0
		})
	}
	reg.RegisterGaugeFunc("bellamy_lifecycle_pending_samples",
		"Buffered observations not yet digested by a fine-tune.", labels,
		func() float64 {
			if ls := s.lifecycleStats(); ls != nil {
				return float64(ls.PendingSamples)
			}
			return 0
		})

	for _, m := range []struct {
		name, help string
		read       func(*api.StoreStats) int64
	}{
		{"bellamy_wal_appends_total", "Records appended to the WAL.", func(d *api.StoreStats) int64 { return d.WALAppends }},
		{"bellamy_wal_appended_bytes_total", "Bytes appended to the WAL.", func(d *api.StoreStats) int64 { return d.WALAppendedBytes }},
		{"bellamy_wal_fsyncs_total", "WAL fsync calls.", func(d *api.StoreStats) int64 { return d.Fsyncs }},
		{"bellamy_store_compactions_total", "WAL compaction runs.", func(d *api.StoreStats) int64 { return d.Compactions }},
		{"bellamy_store_checkpoints_total", "Model checkpoints written.", func(d *api.StoreStats) int64 { return d.Checkpoints }},
	} {
		read := m.read
		reg.RegisterCounterFunc(m.name, m.help, labels, func() int64 {
			if ds := s.storeStats(); ds != nil {
				return read(ds)
			}
			return 0
		})
	}
	reg.RegisterGaugeFunc("bellamy_wal_segments",
		"WAL segment files on disk.", labels,
		func() float64 {
			if ds := s.storeStats(); ds != nil {
				return float64(ds.WALSegments)
			}
			return 0
		})

	reg.RegisterCounterFunc("bellamy_rate_limited_total",
		"Requests answered 429 by the per-client rate limiter.", labels,
		func() int64 {
			if lc := s.loadctl.Load(); lc != nil && lc.Limiter != nil {
				return lc.Limiter.Stats().Limited
			}
			return 0
		})
	reg.RegisterCounterFunc("bellamy_gate_admitted_total",
		"Requests admitted by the gate.", labels,
		func() int64 {
			if lc := s.loadctl.Load(); lc != nil && lc.Gate != nil {
				return lc.Gate.Stats().Admitted
			}
			return 0
		})
	reg.RegisterCounterFunc("bellamy_gate_shed_total",
		"Requests shed by the gate (queue full, timeout, canceled).", labels,
		func() int64 {
			if lc := s.loadctl.Load(); lc != nil && lc.Gate != nil {
				gs := lc.Gate.Stats()
				return gs.ShedQueueFull + gs.ShedTimeout + gs.ShedCanceled
			}
			return 0
		})
	reg.RegisterGaugeFunc("bellamy_gate_inflight",
		"Requests currently holding gate slots.", labels,
		func() float64 {
			if lc := s.loadctl.Load(); lc != nil && lc.Gate != nil {
				return float64(lc.Gate.Stats().InFlight)
			}
			return 0
		})
	reg.RegisterGaugeFunc("bellamy_gate_waiting",
		"Requests currently queued at the gate.", labels,
		func() float64 {
			if lc := s.loadctl.Load(); lc != nil && lc.Gate != nil {
				return float64(lc.Gate.Stats().Waiting)
			}
			return 0
		})
}

// startTrace begins a request trace when a tracer is attached: a
// client-supplied X-Trace-Id is always traced, other requests are
// sampled. The trace ID is echoed on the response header immediately
// (headers must precede the body). Returns nil for untraced requests.
func startTrace(o *Observability, w http.ResponseWriter, r *http.Request) *obs.Trace {
	if o == nil || o.Tracer == nil {
		return nil
	}
	tr := o.Tracer.StartRequest(r.Header.Get(api.TraceIDHeader))
	if tr != nil {
		w.Header().Set(api.TraceIDHeader, tr.ID())
	}
	return tr
}

// finishTrace completes the trace startTrace(o, ...) returned (nil for
// none), offering it to the slow ring.
func finishTrace(o *Observability, tr *obs.Trace) {
	if tr != nil {
		o.Tracer.Finish(tr)
	}
}

// spanSummaries converts recorded spans to their wire form.
func spanSummaries(spans []obs.Span) []api.SpanSummary {
	if len(spans) == 0 {
		return nil
	}
	out := make([]api.SpanSummary, len(spans))
	for i, sp := range spans {
		out[i] = api.SpanSummary{
			Name:      sp.Name,
			Shard:     sp.Shard,
			StartUsec: usec(sp.Start),
			DurUsec:   usec(sp.Dur),
		}
	}
	return out
}

// slowTracesPayload renders the tracer's retained slowest traces as
// the body of GET /v1/debug/slow.
func slowTracesPayload(t *obs.Tracer) api.SlowTracesResponse {
	recs := t.Slowest()
	out := api.SlowTracesResponse{
		SchemaVersion: api.StatsSchemaVersion,
		Traces:        make([]api.TraceSummary, len(recs)),
	}
	now := time.Now()
	for i := range recs {
		r := &recs[i]
		out.Traces[i] = api.TraceSummary{
			TraceID:  r.ID(),
			AgeMs:    now.Sub(r.At).Milliseconds(),
			WallUsec: usec(r.Wall),
			Spans:    spanSummaries(r.Spans[:r.NSpans]),
		}
	}
	return out
}
