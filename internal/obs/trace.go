package obs

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/freelist"
)

// Pipeline stage names. Handlers record spans under these so traces
// are comparable across requests and tiers.
const (
	StageRateLimit    = "ratelimit"
	StageDecode       = "decode"
	StageClassify     = "classify"
	StageGateWait     = "gate_wait"
	StageShardRoute   = "shard_route"
	StageRegistryLoad = "registry_load"
	StagePredict      = "predict"
	StageAllocate     = "allocate"
	StageObserve      = "observe"
	StageEncode       = "encode"
)

// maxSpans bounds a trace's span storage. The full predict pipeline is
// 8 stages; batch fan-out adds one shard_route span per touched shard,
// so 32 covers any realistic topology. Past the cap spans are dropped,
// never reallocated.
const maxSpans = 32

// traceIDLen is the generated trace ID length (hex characters).
const traceIDLen = 16

// maxTraceID bounds accepted client-supplied X-Trace-Id values; longer
// IDs are truncated rather than allocated for.
const maxTraceID = 32

// Span is one named stage of a traced request. Start is the offset
// from the trace's start; Dur the stage duration. Shard is the shard
// the stage ran on, or -1 when not shard-specific.
type Span struct {
	Name  string
	Shard int
	Start time.Duration
	Dur   time.Duration
}

// Trace accumulates the spans of one request. All methods are safe on
// a nil receiver (the untraced fast path pays only the nil checks) and
// Record is safe for concurrent callers (shard fan-out).
type Trace struct {
	id    [maxTraceID]byte
	idLen int
	start time.Time
	next  atomic.Int32
	spans [maxSpans]Span
}

// Reset empties the trace of its spans; a tracer does it before it
// keeps a finished trace for the next request.
func (t *Trace) Reset() { t.next.Store(0) }

// Bytes reports the memory a trace holds: its fixed-size arrays.
func (t *Trace) Bytes() int { return int(unsafe.Sizeof(*t)) }

// ID returns the trace ID, or "" for a nil trace. The string
// materialization allocates; call it only off the hot path (header
// echo, debug rendering).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return string(t.id[:t.idLen])
}

// Clock returns the current time for a live trace and the zero time
// otherwise, so untraced requests skip the clock read entirely:
//
//	t0 := tr.Clock()
//	... stage ...
//	tr.Record(obs.StageDecode, -1, t0)
func (t *Trace) Clock() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Record appends a span for the stage that began at since and ends
// now. No-op on a nil trace or when the span array is full. Concurrent
// Record calls reserve distinct slots atomically.
func (t *Trace) Record(name string, shard int, since time.Time) {
	if t == nil {
		return
	}
	i := t.next.Add(1) - 1
	if int(i) >= maxSpans {
		return
	}
	now := time.Now()
	t.spans[i] = Span{Name: name, Shard: shard, Start: since.Sub(t.start), Dur: now.Sub(since)}
}

// Spans returns the recorded spans. Not safe concurrently with Record;
// call after the request completes.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > maxSpans {
		n = maxSpans
	}
	return t.spans[:n]
}

// TraceRecord is a completed trace snapshot held by the slow ring.
// Value-copied on insert so the ring owns no pointers into reused
// Trace objects.
type TraceRecord struct {
	id     [maxTraceID]byte
	idLen  int
	At     time.Time
	Wall   time.Duration
	NSpans int
	Spans  [maxSpans]Span
}

// ID returns the recorded trace's ID.
func (r *TraceRecord) ID() string { return string(r.id[:r.idLen]) }

// slowRing keeps the K slowest completed traces. An atomic threshold
// makes the common case (trace faster than the current K-th slowest)
// a single load + compare; only genuinely slow traces take the mutex.
type slowRing struct {
	floor atomic.Int64 // min wall (ns) required to enter, once full
	mu    sync.Mutex
	recs  []TraceRecord // preallocated, len == cap == K
	n     int           // occupied prefix of recs
}

func newSlowRing(k int) *slowRing {
	return &slowRing{recs: make([]TraceRecord, k)}
}

// offer inserts the trace if it ranks among the K slowest. The floor
// stays 0 until the ring fills, so the lock-free reject path only ever
// fires once eviction is actually possible.
func (s *slowRing) offer(t *Trace, wall time.Duration, at time.Time) {
	if int64(wall) <= s.floor.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := -1
	if s.n < len(s.recs) {
		slot = s.n
		s.n++
	} else {
		// Evict the fastest resident.
		fastest := 0
		for i := 1; i < s.n; i++ {
			if s.recs[i].Wall < s.recs[fastest].Wall {
				fastest = i
			}
		}
		if s.recs[fastest].Wall >= wall {
			return
		}
		slot = fastest
	}
	r := &s.recs[slot]
	r.id = t.id
	r.idLen = t.idLen
	r.At = at
	r.Wall = wall
	n := int(t.next.Load())
	if n > maxSpans {
		n = maxSpans
	}
	r.NSpans = n
	r.Spans = t.spans
	if s.n == len(s.recs) {
		floor := s.recs[0].Wall
		for i := 1; i < s.n; i++ {
			if s.recs[i].Wall < floor {
				floor = s.recs[i].Wall
			}
		}
		s.floor.Store(int64(floor))
	}
}

// snapshot returns the resident traces, slowest first.
func (s *slowRing) snapshot() []TraceRecord {
	s.mu.Lock()
	out := make([]TraceRecord, s.n)
	copy(out, s.recs[:s.n])
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	return out
}

// Tracer samples requests, reuses Trace objects through a free list,
// and retains the slowest completed traces.
type Tracer struct {
	sampleEvery uint64
	// sampleMask is sampleEvery-1 when sampleEvery is a power of two,
	// letting the untraced fast path mask a random draw instead of
	// dividing by it; 0 selects the modulo fallback.
	sampleMask uint64
	sampled    Counter
	kept       Counter
	traces     *freelist.List[*Trace]
	slow       *slowRing
}

// TracerOptions configure NewTracer.
type TracerOptions struct {
	// SampleEvery traces requests that carry no client trace ID with
	// probability 1/N (<= 0: 64; 1: every request). Client-supplied
	// X-Trace-Id values are always traced.
	SampleEvery int
}

// slowN is how many slowest traces /v1/debug/slow retains.
const slowN = 32

// NewTracer returns a ready tracer.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 64
	}
	tr := &Tracer{
		sampleEvery: uint64(opts.SampleEvery),
		traces:      freelist.New(func() *Trace { return new(Trace) }, 0),
		slow:        newSlowRing(slowN),
	}
	if n := tr.sampleEvery; n&(n-1) == 0 {
		tr.sampleMask = n - 1
	}
	return tr
}

// StartRequest begins a trace for a request carrying headerID (may be
// empty). A non-empty headerID is always traced; otherwise requests
// are sampled with probability 1/SampleEvery. The draw comes from the
// runtime's per-thread generator, so the untraced fast path touches no
// shared state — unlike an every-Nth atomic tick, whose cacheline
// every request on every core would contend on. Returns nil for
// untraced requests — every downstream Trace method is nil-safe, so
// callers thread the result through unconditionally.
func (t *Tracer) StartRequest(headerID string) *Trace {
	if t == nil {
		return nil
	}
	if headerID == "" && t.sampleEvery > 1 {
		if mask := t.sampleMask; mask != 0 {
			if rand.Uint64()&mask != 0 {
				return nil
			}
		} else if rand.Uint64()%t.sampleEvery != 0 {
			return nil
		}
	}
	t.sampled.Inc()
	tr := t.traces.Get()
	tr.start = time.Now()
	if headerID != "" {
		tr.idLen = copy(tr.id[:], headerID)
	} else {
		tr.idLen = traceIDLen
		const hex = "0123456789abcdef"
		v := rand.Uint64()
		for i := 0; i < traceIDLen; i++ {
			tr.id[i] = hex[v&0xf]
			v >>= 4
		}
	}
	return tr
}

// Finish completes the trace: offers it to the slow ring and returns
// it to the free list. The trace must not be used after Finish. No-op
// when either receiver or trace is nil.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	now := time.Now()
	wall := now.Sub(tr.start)
	t.slow.offer(tr, wall, now)
	t.kept.Inc()
	t.traces.Put(tr)
}

// Slowest returns the retained slowest traces, slowest first.
func (t *Tracer) Slowest() []TraceRecord {
	if t == nil {
		return nil
	}
	return t.slow.snapshot()
}

// IdleBytes reports the memory of the traces idle on the free list.
func (t *Tracer) IdleBytes() int {
	if t == nil {
		return 0
	}
	return t.traces.IdleBytes()
}

// Stats reports tracer counters: traces started and traces completed.
func (t *Tracer) Stats() (sampled, finished int64) {
	if t == nil {
		return 0, 0
	}
	return t.sampled.Load(), t.kept.Load()
}

// RegisterMetrics exposes the tracer's own counters on reg.
func (t *Tracer) RegisterMetrics(reg *Registry, labels Labels) {
	reg.RegisterCounter("bellamy_traces_sampled_total",
		"Requests selected for tracing (client-supplied ID or 1-in-N sample).", labels, &t.sampled)
	reg.RegisterCounter("bellamy_traces_finished_total",
		"Traces completed and offered to the slow ring.", labels, &t.kept)
}
