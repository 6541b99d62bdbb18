// Package api holds the canonical wire types of the versioned /v1 HTTP
// surface: request/response DTOs for predict, batch, observe, allocate,
// and stats, the shard topology message, and the unified error
// envelope every error path emits. It is the single source of truth
// for the wire contract — the serve handlers, the shard router, the
// bellamy CLI, and the load generator all marshal exactly these
// structs, so a field added here is a field added everywhere.
//
// The package deliberately depends only on the standard library: it is
// a contract, not an implementation, and must stay importable from
// every layer (including test harnesses) without dragging the serving
// stack along.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// StatsSchemaVersion is the current GET /v1/stats schema generation.
// Version 2 renamed the "loadctl" block to "load_ctl" (normalizing the
// last lowercase-concatenated key to snake_case) and introduced the
// schema_version field itself so consumers can switch on the shape
// instead of string-matching field names. Version 3 added the "obs"
// block. Version 4 dropped the frame, byte and reassembly counters from
// the "replication" block (shards of one process exchange models
// without a wire protocol); the per-shard stats of a sharded deployment
// gained their "load_ctl" block, a shard's gate now being its
// service's. Version 5 dropped the "replication" block: a model version
// lives only on the shard that owns its key, so shards no longer copy
// models to each other. /v1/stats is not read from the metrics registry
// behind GET /metrics (it answers without one): each block is filled
// from the counters that the registry's func-backed series also read.
const StatsSchemaVersion = 5

// Request headers understood by the /v1 surface.
const (
	// ClientKeyHeader identifies the client for per-client rate
	// limiting; requests without it are keyed by remote address.
	ClientKeyHeader = "X-API-Key"
	// DeadlineHeader carries the client's remaining latency budget in
	// milliseconds; the server caps it at its configured maximum.
	DeadlineHeader = "X-Deadline-Ms"
	// TraceIDHeader carries a client-supplied trace ID; a request
	// bearing one is always traced and the ID is echoed on the
	// response. Without it the server samples and, when it does, echoes
	// the generated ID.
	TraceIDHeader = "X-Trace-Id"
)

// Property is the wire form of one descriptive property of a dataflow
// job or its execution context (dataset size, node type, ...).
type Property struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// PredictRequest is the wire form of one runtime prediction request.
type PredictRequest struct {
	Job       string     `json:"job"`
	Env       string     `json:"env"`
	ScaleOut  int        `json:"scale_out"`
	Essential []Property `json:"essential"`
	Optional  []Property `json:"optional,omitempty"`
}

// PredictResponse is the wire form of one prediction result. Exactly
// one of RuntimeSec or Error is meaningful; batch responses carry
// per-item errors here while the HTTP status stays 200.
type PredictResponse struct {
	RuntimeSec float64 `json:"runtime_sec,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	Error      *Error  `json:"error,omitempty"`
}

// BatchRequest wraps the requests of POST /v1/predict/batch.
type BatchRequest struct {
	Requests []PredictRequest `json:"requests"`
}

// BatchResponse wraps the results of POST /v1/predict/batch, one entry
// per request in input order. Failed counts the entries whose Error is
// set, so callers can detect a partial failure without scanning.
type BatchResponse struct {
	Responses []PredictResponse `json:"responses"`
	Failed    int               `json:"failed,omitempty"`
}

// ObserveRequest is the wire form of one runtime observation: a
// prediction request plus the runtime actually measured for it.
type ObserveRequest struct {
	PredictRequest
	RuntimeSec float64 `json:"runtime_sec"`
}

// ObserveResponse is the wire form of POST /v1/observe.
type ObserveResponse struct {
	Accepted bool   `json:"accepted"`
	Error    *Error `json:"error,omitempty"`
}

// ObservationPoint is one measured (scale-out, runtime) point feeding
// the allocation fallback.
type ObservationPoint struct {
	ScaleOut   int     `json:"scale_out"`
	RuntimeSec float64 `json:"runtime_sec"`
}

// AllocateRequest is the wire form of POST /v1/allocate.
type AllocateRequest struct {
	Job       string     `json:"job"`
	Env       string     `json:"env"`
	Essential []Property `json:"essential"`
	Optional  []Property `json:"optional,omitempty"`

	MinScaleOut int   `json:"min_scale_out"`
	MaxScaleOut int   `json:"max_scale_out"`
	Step        int   `json:"step,omitempty"`
	Candidates  []int `json:"candidates,omitempty"`

	DeadlineSec     float64 `json:"deadline_sec"`
	CostPerNodeHour float64 `json:"cost_per_node_hour"`
	SafetyMargin    float64 `json:"safety_margin,omitempty"`

	MinModelSamples int                `json:"min_model_samples,omitempty"`
	Observations    []ObservationPoint `json:"observations,omitempty"`
}

// CurvePoint is the wire form of one annotated sweep candidate.
type CurvePoint struct {
	ScaleOut     int     `json:"scale_out"`
	PredictedSec float64 `json:"predicted_sec"`
	SmoothedSec  float64 `json:"smoothed_sec"`
	Cost         float64 `json:"cost"`
	MeetsSLO     bool    `json:"meets_slo"`
}

// AllocateResponse is the wire form of one allocation decision.
type AllocateResponse struct {
	ScaleOut     int          `json:"scale_out,omitempty"`
	PredictedSec float64      `json:"predicted_sec,omitempty"`
	Cost         float64      `json:"cost,omitempty"`
	Feasible     bool         `json:"feasible"`
	Fallback     bool         `json:"fallback,omitempty"`
	LowSupport   bool         `json:"low_support,omitempty"`
	Source       string       `json:"source,omitempty"`
	MarginSec    float64      `json:"margin_sec,omitempty"`
	MarginFrac   float64      `json:"margin_frac,omitempty"`
	Curve        []CurvePoint `json:"curve,omitempty"`
	Error        *Error       `json:"error,omitempty"`
}

// Stats is the wire form of GET /v1/stats for one serve instance, and
// the only snapshot of its counters: serve.Service.Stats fills it
// straight from the counter cells, the same cells the func-backed
// series of GET /metrics read. In a sharded deployment each shard
// reports one Stats inside ClusterStats. The "_usec" fields are
// float microseconds; every other number is an integer counter.
type Stats struct {
	SchemaVersion int `json:"schema_version"`
	// Requests counts individual predictions asked for (batch items
	// included); Calls counts Predict/PredictBatch invocations.
	Requests int64 `json:"requests"`
	Calls    int64 `json:"calls"`
	// ResultHits / ResultMisses count result-cache outcomes;
	// ResultCacheLen is the current number of memoized results.
	ResultHits     int64 `json:"result_hits"`
	ResultMisses   int64 `json:"result_misses"`
	ResultCacheLen int   `json:"result_cache_len"`
	// MeanLatencyUsec is the average wall-clock time per call.
	MeanLatencyUsec float64 `json:"mean_latency_usec"`
	// The model-registry counters.
	ModelHits       int64 `json:"model_hits"`
	ModelMisses     int64 `json:"model_misses"`
	ModelLoads      int64 `json:"model_loads"`
	ModelLoadErrors int64 `json:"model_load_errors"`
	ModelEvictions  int64 `json:"model_evictions"`
	ModelSwaps      int64 `json:"model_swaps,omitempty"`

	Alloc AllocStats `json:"alloc"`
	// Lifecycle is present when the attached observer reports
	// online-learning counters, Store when a durable store is attached,
	// LoadCtl when load control is, Obs when observability is.
	Lifecycle *LifecycleStats `json:"lifecycle,omitempty"`
	Store     *StoreStats     `json:"store,omitempty"`
	LoadCtl   *LoadCtlStats   `json:"load_ctl,omitempty"`
	Obs       *ObsStats       `json:"obs,omitempty"`
}

// ObsStats is the schema-v3 observability block: tracing counters and
// predict-latency quantiles read from the same log-linear histogram
// that backs the bellamy_predict_latency_seconds summary on /metrics.
type ObsStats struct {
	TracesSampled   int64   `json:"traces_sampled"`
	TracesFinished  int64   `json:"traces_finished"`
	MetricSeries    int     `json:"metric_series"`
	LatencyP50Usec  float64 `json:"latency_p50_usec"`
	LatencyP99Usec  float64 `json:"latency_p99_usec"`
	LatencyP999Usec float64 `json:"latency_p999_usec"`
}

// LoadCtlStats is the wire form of the overload-protection counters.
type LoadCtlStats struct {
	// RateLimited counts requests answered 429; Clients / ClientsEvicted
	// are the limiter's tracked-bucket state.
	RateLimited    int64 `json:"rate_limited"`
	Clients        int   `json:"clients"`
	ClientsEvicted int64 `json:"clients_evicted,omitempty"`
	// Admitted / Queued / Shed* are the admission gate's counters.
	Admitted      int64 `json:"admitted"`
	Queued        int64 `json:"queued"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedTimeout   int64 `json:"shed_timeout"`
	ShedCanceled  int64 `json:"shed_canceled"`
	// GateBypassed counts cache-hit predictions that skipped the gate.
	GateBypassed int64 `json:"gate_bypassed"`
	// DeadlineRejects counts requests answered 504 because their budget
	// ran out server-side.
	DeadlineRejects int64 `json:"deadline_rejects"`
	// MeanQueueWaitUsec is the average slot wait of queued-then-admitted
	// requests.
	MeanQueueWaitUsec float64 `json:"mean_queue_wait_usec"`
	// Draining reports whether shutdown drain has started.
	Draining bool `json:"draining,omitempty"`
}

// AllocStats is the wire form of the allocation counters.
type AllocStats struct {
	// Requests counts Allocate calls that reached the engine; Errors
	// those that failed (bad request or model).
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Violations counts allocations where no candidate satisfied the
	// SLO and a best-effort configuration was returned.
	Violations int64 `json:"violations"`
	// Fallbacks counts allocations answered by the interpolation
	// fallback instead of the model.
	Fallbacks int64 `json:"fallbacks"`
	// MeanLatencyUsec is the average wall-clock time per allocation.
	MeanLatencyUsec float64 `json:"mean_latency_usec"`
}

// LifecycleStats is the wire form of the online-learning counters.
type LifecycleStats struct {
	// Observations counts accepted observations; Rejected those dropped
	// for failing validation.
	Observations int64 `json:"observations"`
	Rejected     int64 `json:"rejected"`
	// PendingSamples is the current total of buffered observations not
	// yet digested by a fine-tune.
	PendingSamples int `json:"pending_samples"`
	// Finetunes counts fine-tune runs (successful or failed).
	// FinetuneErrors counts failed attempts of any kind — including
	// model-load/clone failures that aborted before a run started, so
	// under persistent load failures it can exceed Finetunes.
	Finetunes      int64 `json:"finetunes"`
	FinetuneErrors int64 `json:"finetune_errors"`
	// Swaps counts installed model versions; SwapsSkipped counts
	// fine-tunes discarded because their base version was evicted.
	Swaps        int64 `json:"swaps"`
	SwapsSkipped int64 `json:"swaps_skipped"`
	// MeanFinetuneUsec is the average wall-clock time of a fine-tune
	// run (failed runs included).
	MeanFinetuneUsec float64 `json:"mean_finetune_usec"`
	// Restored counts observations, digest markers and dropped counts
	// re-admitted from the durable log during boot replay.
	Restored int64 `json:"restored,omitempty"`
	// LogErrors counts durable-log append and checkpoint write failures
	// (observations rejected as not-durable, versions left
	// uncheckpointed).
	LogErrors int64 `json:"log_errors,omitempty"`
}

// StoreStats is the wire form of the durable-store counters.
type StoreStats struct {
	// WALAppends / WALAppendedBytes count framed records written.
	WALAppends       int64 `json:"wal_appends"`
	WALAppendedBytes int64 `json:"wal_appended_bytes"`
	// WALSegments is the current on-disk WAL segment count (active
	// included); WALActiveSeq the active segment's sequence number.
	WALSegments  int    `json:"wal_segments"`
	WALActiveSeq uint64 `json:"wal_active_seq"`
	// Fsyncs counts explicit sync calls (appends, seals, closes).
	Fsyncs int64 `json:"fsyncs"`
	// RepairedBytes counts torn tail bytes truncated at open.
	RepairedBytes int64 `json:"repaired_bytes,omitempty"`
	// ReplayedObservations / ReplayedDigests count records delivered
	// by replay.
	ReplayedObservations int64 `json:"replayed_observations"`
	ReplayedDigests      int64 `json:"replayed_digests"`
	// CorruptSegments counts files that failed validation: a sealed WAL
	// segment that stopped replay, or a snapshot that did not scan
	// clean at open (and was skipped, deleting no WAL) or failed to
	// decode at replay or compaction.
	CorruptSegments int64 `json:"corrupt_segments,omitempty"`
	// Compactions counts compaction runs that produced a snapshot;
	// CompactedRecords the WAL records they absorbed; CompactSegments
	// is 1 while a trusted snapshot exists, else 0.
	Compactions      int64 `json:"compactions"`
	CompactedRecords int64 `json:"compacted_records"`
	CompactSegments  int   `json:"compact_segments"`
	// Checkpoints / CheckpointErrors / CheckpointLoads count model
	// checkpoint writes, failed writes or corrupt reads, and
	// successful recoveries.
	Checkpoints      int64 `json:"checkpoints"`
	CheckpointErrors int64 `json:"checkpoint_errors,omitempty"`
	CheckpointLoads  int64 `json:"checkpoint_loads"`
}

// ClusterStats is the wire form of GET /v1/stats on a sharded router:
// per-shard serve stats plus router counters.
type ClusterStats struct {
	SchemaVersion int          `json:"schema_version"`
	Shards        []ShardStats `json:"shards"`
	Router        RouterStats  `json:"router"`
}

// ShardStats pairs one shard's identity with its serve stats.
type ShardStats struct {
	ID    int   `json:"id"`
	Stats Stats `json:"stats"`
}

// RouterStats counts work done by the shard router itself.
type RouterStats struct {
	Requests        int64 `json:"requests"`
	BatchFanouts    int64 `json:"batch_fanouts"`
	PartialFailures int64 `json:"partial_failures"`
	RateLimited     int64 `json:"rate_limited"`
	DeadlineRejects int64 `json:"deadline_rejects"`
}

// TopologyResponse is the wire form of GET /v1/shards: the cluster's
// shard layout plus the model versions resident on each shard.
type TopologyResponse struct {
	SchemaVersion int         `json:"schema_version"`
	Shards        []ShardInfo `json:"shards"`
	VirtualNodes  int         `json:"virtual_nodes"`
}

// ShardInfo describes one shard in the topology.
type ShardInfo struct {
	ID     int            `json:"id"`
	Models []ModelVersion `json:"models,omitempty"`
}

// ModelVersion names one resident model version on a shard: the
// registry's version counter, 1 for a base model file (or the version
// a checkpoint restored) and one higher for each hot swap since.
type ModelVersion struct {
	Job     string `json:"job"`
	Env     string `json:"env"`
	Version uint64 `json:"version"`
}

// Error codes of the unified envelope. Codes are stable API: clients
// switch on them, messages are for humans.
const (
	CodeBadRequest       = "bad_request"       // 400: malformed body or missing fields
	CodeModelNotFound    = "model_not_found"   // 404: no model for (job, env)
	CodePayloadTooLarge  = "payload_too_large" // 413: body or batch over limit
	CodeRateLimited      = "rate_limited"      // 429: per-client token bucket empty
	CodeObserveCapacity  = "observe_capacity"  // 429: observation buffer full
	CodeObserveDisabled  = "observe_disabled"  // 503: no lifecycle attached
	CodeOverloaded       = "overloaded"        // 503: admission gate shed the request
	CodeDraining         = "draining"          // 503: server shutting down
	CodeDeadlineExceeded = "deadline_exceeded" // 504: budget ran out queued or mid-work
	CodeInternal         = "internal"          // 500: unexpected server fault
)

// Error is the unified error payload carried in the envelope
// {"error":{"code","message","retry_after_ms"}} and inline in per-item
// batch responses. Deadline-expiry (504) envelopes from a traced
// request additionally carry the trace ID and the spans recorded up to
// expiry, so "where did my budget go?" is answerable from the
// rejection itself.
type Error struct {
	Code         string        `json:"code"`
	Message      string        `json:"message"`
	RetryAfterMs int64         `json:"retry_after_ms,omitempty"`
	TraceID      string        `json:"trace_id,omitempty"`
	Spans        []SpanSummary `json:"spans,omitempty"`
}

// SpanSummary is the wire form of one recorded pipeline stage. Shard
// is -1 for stages that are not shard-specific — always serialized, so
// shard 0 stays distinguishable from "no shard".
type SpanSummary struct {
	Name      string  `json:"name"`
	Shard     int     `json:"shard"`
	StartUsec float64 `json:"start_usec"`
	DurUsec   float64 `json:"dur_usec"`
}

// TraceSummary is the wire form of one completed trace in
// GET /v1/debug/slow.
type TraceSummary struct {
	TraceID  string        `json:"trace_id"`
	AgeMs    int64         `json:"age_ms"`
	WallUsec float64       `json:"wall_usec"`
	Spans    []SpanSummary `json:"spans"`
}

// SlowTracesResponse is the wire form of GET /v1/debug/slow: the
// retained slowest traces, slowest first.
type SlowTracesResponse struct {
	SchemaVersion int            `json:"schema_version"`
	Traces        []TraceSummary `json:"traces"`
}

// Error implements the error interface so an *Error can travel through
// error-typed plumbing without losing its code.
func (e *Error) Error() string {
	if e == nil {
		return "<nil>"
	}
	return e.Code + ": " + e.Message
}

// ErrorEnvelope is the body of every non-2xx /v1 response.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// Errorf builds an *Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// WithRetryAfter returns a copy of e carrying a retry hint rounded up
// to whole milliseconds (a hint of 0 would mean "immediately", which
// is never what a rejection intends).
func (e *Error) WithRetryAfter(d time.Duration) *Error {
	ms := int64((d + time.Millisecond - 1) / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	out := *e
	out.RetryAfterMs = ms
	return &out
}

// WriteJSON writes v as the JSON body of a 200 response.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// WriteError writes the unified envelope with the given HTTP status.
// When the error carries a retry hint, the conventional Retry-After
// header is set too (ceiled to whole seconds: 0 would mean "now"), so
// generic HTTP clients that know nothing of the envelope still back
// off correctly.
func WriteError(w http.ResponseWriter, status int, e *Error) {
	if e.RetryAfterMs > 0 {
		secs := (e.RetryAfterMs + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: e})
}
