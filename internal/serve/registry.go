// Package serve is the prediction-serving layer on top of the Bellamy
// model stack: a model registry that lazily loads serialized models per
// execution context, a bounded result cache that memoizes repeated
// queries, and a Service exposing Predict/PredictBatch plus an HTTP
// JSON endpoint. It turns the library into the concurrent,
// heavy-traffic system the roadmap targets.
package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// ModelKey identifies a served model by the (job, environment) context
// it was trained for.
type ModelKey struct {
	Job string
	Env string
}

// String renders the key in the job@env form used for filenames and
// cache keys.
func (k ModelKey) String() string { return k.Job + "@" + k.Env }

// Loader materializes the model for a key, typically by reading a file
// written by core.Model.SaveFile. It is called at most once per key for
// any number of concurrent Get calls (single-flight), and again only
// after a failed load or an eviction.
type Loader func(key ModelKey) (*core.Model, error)

// VersionedLoader materializes a model together with the version number
// it is published as. A plain Loader always publishes version 1; a
// recovery-aware loader (see CheckpointLoader) returns the version the
// model held when it was checkpointed, so a restarted node's registry
// reports the same generation it crashed with. A returned version of 0
// is normalized to 1.
type VersionedLoader func(key ModelKey) (*core.Model, uint64, error)

// Model wraps a core.Model with the mutex that makes it safe to serve:
// forward passes cache per-layer state and fill model-owned batch
// buffers, so concurrent inference on the same underlying model must be
// serialized. A resident model holds no scratch arena: each call borrows
// one from core's process-wide free list (GOMAXPROCS+1 idle at most),
// so the batch workers fanning across models never contend for buffers
// and never allocate in steady state.
type Model struct {
	mu sync.Mutex
	// m is the published version itself: the network that was trained
	// is the one that answers, and the clone source of online
	// fine-tuning.
	m *core.Model
	// rows is where this model's encoder work is counted: the
	// registry's, which outlives every version it publishes.
	rows *inferRows
}

// inferRows counts the property values served predictions carried and
// the rows the property encoder ran on for them; the difference is the
// encoder work the calls' repeated values let serving skip.
type inferRows struct{ property, distinct atomic.Int64 }

// newModel wraps a published model version for serving.
func (r *Registry) newModel(m *core.Model) *Model {
	return &Model{m: m, rows: &r.inferRows}
}

// Predict runs a single query against the underlying model.
func (sm *Model) Predict(q core.Query) (v float64, err error) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	v, err = sm.m.Predict(q.ScaleOut, q.Essential, q.Optional)
	sm.countRows(err)
	return v, err
}

// countRows adds the encoder work of the call that just returned err to
// the registry's counters; a failed call ran no encoder.
func (sm *Model) countRows(err error) {
	if err != nil {
		return
	}
	property, distinct := sm.m.LastRows()
	sm.rows.property.Add(int64(property))
	sm.rows.distinct.Add(int64(distinct))
}

// PredictBatchInto runs one forward pass over all queries, writing the
// predictions into dst. Under the model lock the pass reuses the model's
// batch buffers and a borrowed arena, so a warm call allocates nothing.
func (sm *Model) PredictBatchInto(dst []float64, qs []core.Query) (err error) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	err = sm.m.PredictBatchInto(dst, qs)
	sm.countRows(err)
	return err
}

// Validate checks a query against the model configuration without
// touching forward-pass state; it needs no lock.
func (sm *Model) Validate(q core.Query) error { return sm.m.ValidateQuery(q) }

// Pretrained implements allocate.SupportReporter.
func (sm *Model) Pretrained() bool {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.m.Pretrained()
}

// FinetuneSamples implements allocate.SupportReporter: the fine-tune
// support of the resident model version. A version installed by the
// online lifecycle carries the sample count of the fine-tune that
// produced it; a version loaded from disk carries whatever support was
// serialized with it (0 for a purely pre-trained model).
func (sm *Model) FinetuneSamples() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.m.FinetuneSamples()
}

// CloneCore deep-copies the underlying model under the serving lock, so
// online fine-tuning can adapt a private copy while this model keeps
// serving. Only weights and scalers are copied; the clone's calls borrow
// their arenas like every model's.
func (sm *Model) CloneCore() (*core.Model, error) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.m.Clone()
}

// versioned is one published model version. Get reads it through an
// atomic pointer, so a hot-swap never blocks serving: in-flight
// predictions keep the *Model they already hold and finish on the old
// version while new Gets pick up the replacement.
type versioned struct {
	version uint64
	sm      *Model
}

// entry is one registry slot. ready is closed when the load finishes
// (successfully or not), letting concurrent getters wait without
// holding the registry lock. gen identifies this residency: an entry
// created by a later reload (after eviction or a failed load) carries a
// different generation, which is what lets Swap refuse to resurrect
// weights derived from an evicted version.
type entry struct {
	key   ModelKey
	gen   uint64
	ready chan struct{}
	slot  atomic.Pointer[versioned]
	err   error
	elem  *list.Element
}

// RegistryStats is a snapshot of the registry counters.
type RegistryStats struct {
	// Hits counts Get calls that found an entry (including waits on an
	// in-flight load started by another goroutine).
	Hits int64
	// Misses counts Get calls that had to start a load.
	Misses int64
	// Loads counts successful loader invocations.
	Loads int64
	// LoadErrors counts failed loader invocations.
	LoadErrors int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// Swaps counts successful hot-swaps of a new model version.
	Swaps int64
	// SwapsSkipped counts Swap calls refused because the target
	// generation was no longer resident (evicted or reloaded).
	SwapsSkipped int64
	// PropertyRows counts the property values of the predictions the
	// registry's models computed and DistinctRows the rows their property
	// encoder ran on: a call encodes each distinct value once.
	PropertyRows, DistinctRows int64
}

// Registry lazily loads and caches serving models keyed by execution
// context. Loads are deduplicated single-flight style, and the resident
// set is bounded by an LRU policy.
type Registry struct {
	load VersionedLoader
	cap  int

	mu      sync.Mutex
	entries map[ModelKey]*entry
	lru     *list.List // front = most recently used

	genCounter atomic.Uint64

	hits, misses, loads, loadErrors, evictions atomic.Int64
	swaps, swapsSkipped                        atomic.Int64
	inferRows                                  inferRows
}

// DefaultModelCap bounds the resident models when no capacity is given.
const DefaultModelCap = 8

// NewRegistry builds a registry over loader holding at most capacity
// models (<= 0 selects DefaultModelCap). Every model that loader returns is
// published as version 1.
func NewRegistry(loader Loader, capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultModelCap
	}
	return &Registry{
		load: func(key ModelKey) (*core.Model, uint64, error) {
			m, err := loader(key)
			return m, 1, err
		},
		cap:     capacity,
		entries: map[ModelKey]*entry{},
		lru:     list.New(),
	}
}

// SetVersionedLoader replaces the registry's load path with a loader
// that also dictates the published version of each loaded model. Set it
// before serving traffic (it is not synchronized against in-flight
// loads); the serve startup path uses it to restore checkpointed model
// versions after a restart.
func (r *Registry) SetVersionedLoader(vl VersionedLoader) { r.load = vl }

// Get returns the serving model for key, loading it on first use. All
// concurrent callers for the same key share one loader invocation. A
// failed load is not cached: the next Get retries. A caller whose ctx
// ends while waiting on another goroutine's in-flight load abandons
// the wait (the load itself continues for the surviving callers).
func (r *Registry) Get(ctx context.Context, key ModelKey) (*Model, error) {
	ref, err := r.GetRef(ctx, key)
	if err != nil {
		return nil, err
	}
	return ref.Model, nil
}

// Ref is a stable reference to one resident model version: the model
// itself, the version it was published as, and the generation of its
// registry slot. Gen is the swap token — a fine-tune started from this
// reference passes it to Swap, which refuses the install if the slot
// has since been evicted or reloaded.
type Ref struct {
	Model   *Model
	Version uint64
	Gen     uint64
}

// GetRef is Get plus the version/generation coordinates of the returned
// model, for callers (the lifecycle controller) that later want to
// Swap a derived model back in.
func (r *Registry) GetRef(ctx context.Context, key ModelKey) (Ref, error) {
	// A request that has already blown its deadline must not start (or
	// wait for) a model load.
	if err := ctx.Err(); err != nil {
		return Ref{}, err
	}
	e, loaded := r.acquire(key)
	if loaded {
		select {
		case <-e.ready:
		case <-ctx.Done():
			// The single-flight load honors cancellation for waiters:
			// this caller abandons the wait; the owning goroutine keeps
			// loading so other callers (and the next request) still get
			// the model.
			return Ref{}, ctx.Err()
		}
		if e.err != nil {
			return Ref{}, e.err
		}
		v := e.slot.Load()
		return Ref{Model: v.sm, Version: v.version, Gen: e.gen}, nil
	}

	m, version, err := r.load(key)
	if version == 0 {
		version = 1
	}
	if err != nil {
		e.err = fmt.Errorf("serve: loading model %s: %w", key, err)
		r.loadErrors.Add(1)
		close(e.ready)
		// Drop the failed entry so a later Get can retry the load.
		r.mu.Lock()
		if cur, ok := r.entries[key]; ok && cur == e {
			r.lru.Remove(e.elem)
			delete(r.entries, key)
		}
		r.mu.Unlock()
		return Ref{}, e.err
	}
	v := &versioned{version: version, sm: r.newModel(m)}
	e.slot.Store(v)
	r.loads.Add(1)
	close(e.ready)
	return Ref{Model: v.sm, Version: v.version, Gen: e.gen}, nil
}

// acquire returns the entry for key, creating (and LRU-bounding) it
// when absent. The boolean reports whether the entry already existed;
// a false return means the caller owns the load.
func (r *Registry) acquire(key ModelKey) (*entry, bool) {
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		r.hits.Add(1)
		return e, true
	}
	e := &entry{key: key, gen: r.genCounter.Add(1), ready: make(chan struct{})}
	e.elem = r.lru.PushFront(e)
	r.entries[key] = e
	for r.lru.Len() > r.cap {
		oldest := r.lru.Back()
		victim := oldest.Value.(*entry)
		r.lru.Remove(oldest)
		delete(r.entries, victim.key)
		r.evictions.Add(1)
	}
	r.mu.Unlock()
	r.misses.Add(1)
	return e, false
}

// Swap atomically publishes m as the next version of key's slot,
// provided the slot still holds the generation the caller derived m
// from. It returns the new version number and whether the install
// happened. A false return means the original residency is gone —
// evicted, or reloaded after eviction — and the derived model must be
// dropped: installing it would resurrect weights whose base version
// the registry already discarded. In-flight predictions holding the
// previous *Model finish on it undisturbed.
func (r *Registry) Swap(key ModelKey, gen uint64, m *core.Model) (uint64, bool) {
	sm := r.newModel(m)
	r.mu.Lock()
	e, ok := r.entries[key]
	if !ok || e.gen != gen {
		r.mu.Unlock()
		r.swapsSkipped.Add(1)
		return 0, false
	}
	cur := e.slot.Load()
	if cur == nil {
		// Load still in flight: gen tokens come from completed GetRef
		// calls, so this entry is a different (reloading) residency.
		r.mu.Unlock()
		r.swapsSkipped.Add(1)
		return 0, false
	}
	next := &versioned{version: cur.version + 1, sm: sm}
	e.slot.Store(next)
	r.lru.MoveToFront(e.elem)
	r.mu.Unlock()
	r.swaps.Add(1)
	return next.version, true
}

// Publish installs m as key's model at an explicit version, creating
// the slot when absent. It is the replication install path: versions
// arrive from a peer's registry, and the install is refused (false)
// unless the incoming version is strictly newer than the resident one
// — applying the rule that makes swap propagation convergent: a
// replica never applies a version older than (or equal to) the one it
// holds, so replays, reorderings, and duplicate deliveries are all
// no-ops. A slot with a load still in flight is left alone; the
// version comparison happens against whatever that load publishes, on
// the next delivery.
func (r *Registry) Publish(key ModelKey, version uint64, m *core.Model) bool {
	sm := r.newModel(m)
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		cur := e.slot.Load()
		if cur == nil || cur.version >= version {
			r.mu.Unlock()
			r.swapsSkipped.Add(1)
			return false
		}
		e.slot.Store(&versioned{version: version, sm: sm})
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		r.swaps.Add(1)
		return true
	}
	e := &entry{key: key, gen: r.genCounter.Add(1), ready: make(chan struct{})}
	e.slot.Store(&versioned{version: version, sm: sm})
	close(e.ready) // born resident: getters never wait on this slot
	e.elem = r.lru.PushFront(e)
	r.entries[key] = e
	for r.lru.Len() > r.cap {
		oldest := r.lru.Back()
		victim := oldest.Value.(*entry)
		r.lru.Remove(oldest)
		delete(r.entries, victim.key)
		r.evictions.Add(1)
	}
	r.mu.Unlock()
	r.swaps.Add(1)
	return true
}

// ResidentVersions snapshots the (key, version) pairs of every fully
// published resident model, the per-shard model list of GET
// /v1/shards. Slots with loads still in flight are skipped.
func (r *Registry) ResidentVersions() map[ModelKey]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[ModelKey]uint64, len(r.entries))
	for key, e := range r.entries {
		if v := e.slot.Load(); v != nil {
			out[key] = v.version
		}
	}
	return out
}

// Resident reports whether key's model is resident (or at least has a
// load in flight), i.e. whether a Get would be a cheap cache hit or an
// expensive cold load. The admission layer uses it to classify single
// predictions without perturbing the LRU order.
func (r *Registry) Resident(key ModelKey) bool {
	r.mu.Lock()
	_, ok := r.entries[key]
	r.mu.Unlock()
	return ok
}

// Version reports the currently published version of key, or false
// when the key is not resident (or still loading).
func (r *Registry) Version(key ModelKey) (uint64, bool) {
	r.mu.Lock()
	e, ok := r.entries[key]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	v := e.slot.Load()
	if v == nil {
		return 0, false
	}
	return v.version, true
}

// Len reports the number of resident (or loading) models.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// Stats snapshots the counters.
func (r *Registry) Stats() RegistryStats {
	return RegistryStats{
		Hits:         r.hits.Load(),
		Misses:       r.misses.Load(),
		Loads:        r.loads.Load(),
		LoadErrors:   r.loadErrors.Load(),
		Evictions:    r.evictions.Load(),
		Swaps:        r.swaps.Load(),
		SwapsSkipped: r.swapsSkipped.Load(),
		PropertyRows: r.inferRows.property.Load(),
		DistinctRows: r.inferRows.distinct.Load(),
	}
}
