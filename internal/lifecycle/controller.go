// Package lifecycle closes the loop from live runtime observations back
// into better served models. A Controller ingests (key, query, actual
// runtime) observations into bounded per-key buffers, and a background
// scan fine-tunes a clone of the served model once a key accumulates
// enough fresh samples (or they grow stale), then hot-swaps the result
// into the serving registry as a new version. Serving is never blocked:
// fine-tuning runs on clones with their own weights, concurrency is
// bounded by the shared parallel worker helper, and the swap is an
// atomic pointer flip guarded by the registry's generation counters.
package lifecycle

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// Defaults for Config fields left zero.
const (
	DefaultMinSamples   = 8
	DefaultBufferCap    = 256
	DefaultMaxKeys      = 1024
	DefaultInterval     = 30 * time.Second
	DefaultMaxStaleness = 2 * time.Minute
	// DefaultFinetuneEpochs bounds an online fine-tune run well below
	// the offline default (2500), keeping swap latency in the tens of
	// milliseconds for paper-sized contexts.
	DefaultFinetuneEpochs = 300
	// DefaultFinetunePatience stops a stalled online run early.
	DefaultFinetunePatience = 100
)

// Config tunes a Controller.
type Config struct {
	// MinSamples triggers a fine-tune once a key holds this many fresh
	// (undigested) observations (<= 0: DefaultMinSamples).
	MinSamples int
	// MaxStaleness triggers a fine-tune when the oldest fresh
	// observation has waited this long, so trickle traffic still gets
	// digested (0: DefaultMaxStaleness; < 0 disables the staleness
	// trigger).
	MaxStaleness time.Duration
	// BufferCap bounds each key's observation ring
	// (<= 0: DefaultBufferCap).
	BufferCap int
	// MaxKeys bounds the number of distinct model keys holding
	// observation buffers; observations for further keys are rejected,
	// so a stream of junk keys cannot grow memory without limit
	// (<= 0: DefaultMaxKeys).
	MaxKeys int
	// Interval is the background scan period (<= 0: DefaultInterval).
	Interval time.Duration
	// Workers bounds concurrent fine-tunes, so tuning load cannot
	// starve serving of cores (<= 0: NumCPU/4, at least 1).
	Workers int
	// Finetune tunes the adaptation runs. A zero value selects
	// StrategyPartialUnfreeze with DefaultFinetuneEpochs/Patience.
	Finetune core.FinetuneOptions
	// Log, when set, makes observations durable: Observe appends to it
	// before ring admission and fails (rejecting the observation) if the
	// append does, so an acknowledged observation is always recoverable.
	// *store.Store satisfies it.
	Log ObservationLog
	// Checkpoint, when set, persists every installed model version
	// (serialized before the swap publishes the model, written after the
	// swap succeeds). *store.Store satisfies it.
	Checkpoint Checkpointer
}

// ObservationLog is the durable observation sink (the WAL). The
// controller defines the interface structurally so the lifecycle and
// store packages stay decoupled; *store.Store satisfies it.
type ObservationLog interface {
	AppendObservation(job, env string, sample core.Sample, at time.Time) error
	AppendDigest(job, env string, fresh int, at time.Time) error
}

// Checkpointer persists installed model versions; *store.Store
// satisfies it.
type Checkpointer interface {
	CheckpointModel(job, env string, version uint64, blob []byte) error
}

func (c Config) withDefaults() Config {
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.MaxStaleness == 0 {
		c.MaxStaleness = DefaultMaxStaleness
	}
	if c.BufferCap <= 0 {
		c.BufferCap = DefaultBufferCap
	}
	if c.MaxKeys <= 0 {
		c.MaxKeys = DefaultMaxKeys
	}
	// fresh is capped at the ring occupancy, so a size trigger above
	// the ring capacity could never fire (with staleness disabled the
	// buffer would absorb observations forever without digesting them).
	if c.MinSamples > c.BufferCap {
		c.MinSamples = c.BufferCap
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Workers <= 0 {
		c.Workers = max(1, runtime.NumCPU()/4)
	}
	if c.Finetune.MaxEpochs <= 0 {
		c.Finetune.MaxEpochs = DefaultFinetuneEpochs
	}
	if c.Finetune.Patience <= 0 {
		c.Finetune.Patience = DefaultFinetunePatience
	}
	return c
}

// Controller is the online-learning subsystem: observation ingestion,
// trigger evaluation, bounded background fine-tuning, and versioned
// hot-swap into a serve.Registry. It implements serve.Observer,
// serve.SwapNotifier, and serve.LifecycleStatser, so a single
// Service.AttachObserver call wires the whole loop. Safe for
// concurrent use.
type Controller struct {
	reg *serve.Registry
	cfg Config

	mu        sync.Mutex
	buffers   map[serve.ModelKey]*buffer
	onSwap    []func(key serve.ModelKey, version uint64)
	onInstall []func(key serve.ModelKey, version uint64, blob []byte)

	observations, rejected    atomic.Int64
	finetunes, finetuneErrors atomic.Int64
	swaps, swapsSkipped       atomic.Int64
	finetuneNS                atomic.Int64
	restored, logErrors       atomic.Int64

	startOnce, stopOnce sync.Once
	stop                chan struct{}
	done                chan struct{}
}

// New builds a controller fine-tuning and swapping models of reg.
func New(reg *serve.Registry, cfg Config) *Controller {
	return &Controller{
		reg:     reg,
		cfg:     cfg.withDefaults(),
		buffers: map[serve.ModelKey]*buffer{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// OnSwap registers a callback invoked after every installed model
// version (key and new version number). Register callbacks before
// Start; serve.Service.AttachObserver registers its result-cache
// invalidation through this hook.
func (c *Controller) OnSwap(fn func(key serve.ModelKey, version uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onSwap = append(c.onSwap, fn)
}

// OnInstall registers a callback invoked after every installed model
// version with the serialized model bytes — the same blob the
// checkpointer persists, handed over so a replicator can ship it to
// peer shards without re-serializing the model. Register callbacks
// before Start. When any install hook is registered, the blob is built
// even if checkpointing is disabled.
func (c *Controller) OnInstall(fn func(key serve.ModelKey, version uint64, blob []byte)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onInstall = append(c.onInstall, fn)
}

// Observe ingests one runtime observation for key. Validation here is
// shape-free (the model may not even be resident yet): positive
// scale-out and runtime, non-empty job. Property-count validation
// against the model architecture happens at fine-tune time, where the
// model configuration is known. The query's property slices are
// referenced, not copied; callers must not mutate them afterwards
// (HTTP ingestion decodes fresh slices per request). The context is
// checked once before the durable append: an observation whose caller
// already gave up is rejected instead of paying a WAL fsync for an
// answer nobody reads.
func (c *Controller) Observe(ctx context.Context, key serve.ModelKey, q core.Query, runtimeSec float64) error {
	if err := ctx.Err(); err != nil {
		c.rejected.Add(1)
		return err
	}
	if key.Job == "" {
		c.rejected.Add(1)
		return fmt.Errorf("lifecycle: observation missing job")
	}
	if q.ScaleOut <= 0 {
		c.rejected.Add(1)
		return fmt.Errorf("lifecycle: observation scale-out %d must be positive", q.ScaleOut)
	}
	if err := dataset.CheckRuntime(runtimeSec); err != nil {
		c.rejected.Add(1)
		return fmt.Errorf("lifecycle: observed %w", err)
	}
	b, err := c.bufferFor(key)
	if err != nil {
		c.rejected.Add(1)
		return err
	}
	s := core.Sample{
		ScaleOut:   q.ScaleOut,
		Essential:  q.Essential,
		Optional:   q.Optional,
		RuntimeSec: runtimeSec,
	}
	now := time.Now()
	// Durability before admission: an observation enters the ring only
	// once the WAL holds it, so an acknowledged Observe (HTTP 202) is
	// never lost to a crash. A failed append rejects the observation
	// rather than admitting volatile state the caller believes durable.
	if c.cfg.Log != nil {
		if err := c.cfg.Log.AppendObservation(key.Job, key.Env, s, now); err != nil {
			c.logErrors.Add(1)
			c.rejected.Add(1)
			return fmt.Errorf("lifecycle: observation not durable: %w", err)
		}
	}
	b.add(s, now)
	c.observations.Add(1)
	return nil
}

// Restore re-admits one replayed observation into key's ring without
// re-logging it. It is the boot-replay counterpart of Observe: call it
// (with the observation's original arrival time) while replaying the
// durable log, before Start and before serving traffic.
func (c *Controller) Restore(key serve.ModelKey, s core.Sample, at time.Time) {
	b, err := c.bufferFor(key)
	if err != nil {
		c.rejected.Add(1)
		return
	}
	b.add(s, at)
	c.restored.Add(1)
}

// RestoreDigest marks key's currently buffered samples digested during
// boot replay. A digest record follows a checkpointed fine-tune in the
// log, so replaying it reconstructs the ring's freshness state — the
// samples stay resident as context for future fine-tunes but do not
// re-trigger the fine-tune whose result is already checkpointed.
func (c *Controller) RestoreDigest(key serve.ModelKey) {
	c.mu.Lock()
	b := c.buffers[key]
	c.mu.Unlock()
	if b == nil {
		return
	}
	b.markDigested()
	c.restored.Add(1)
}

func (c *Controller) bufferFor(key serve.ModelKey) (*buffer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.buffers[key]
	if !ok {
		if len(c.buffers) >= c.cfg.MaxKeys {
			return nil, fmt.Errorf("lifecycle: observation buffers at the %d-key bound; observation for new key %s rejected: %w",
				c.cfg.MaxKeys, key, serve.ErrObserveCapacity)
		}
		b = newBuffer(c.cfg.BufferCap)
		c.buffers[key] = b
	}
	return b, nil
}

// Start launches the background scan loop. Stop it with Stop.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case now := <-t.C:
					c.runOnce(now)
				}
			}
		}()
	})
}

// Stop terminates the background loop and waits for it (and any
// fine-tunes it is running) to finish. Safe to call more than once,
// and before Start (the loop then never runs).
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) })
	<-c.done
}

// Drain shuts the controller down for process exit: it stops the
// background loop (waiting out any fine-tunes it is running), then
// synchronously digests every buffer still holding fresh samples —
// triggers, staleness, and backoff are ignored, shutdown is the last
// chance to turn buffered observations into a checkpointed model
// version. Every installed version flows through the usual checkpoint +
// digest-record path, so a clean restart replays none of it as fresh.
// Returns the number of versions installed.
func (c *Controller) Drain() int {
	c.Stop()
	c.mu.Lock()
	jobs := make([]tuneJob, 0, len(c.buffers))
	for key, b := range c.buffers {
		if samples, fresh, ok := b.takeForDrain(); ok {
			jobs = append(jobs, tuneJob{key: key, buf: b, samples: samples, fresh: fresh})
		}
	}
	c.mu.Unlock()
	if len(jobs) == 0 {
		return 0
	}
	var swapped atomic.Int64
	parallel.ForEach(len(jobs), c.cfg.Workers, func(i int) {
		if c.tune(jobs[i]) {
			swapped.Add(1)
		}
	})
	return int(swapped.Load())
}

// RunOnce synchronously evaluates the triggers and runs every due
// fine-tune on the bounded worker pool, returning the number of model
// versions installed. The background loop calls it on each tick; tests
// call it directly for deterministic control.
func (c *Controller) RunOnce() int {
	return c.runOnce(time.Now())
}

// tuneJob is one triggered key with its snapshotted samples; fresh is
// the digested fresh-sample count, requeued if the attempt fails
// before the fine-tune runs.
type tuneJob struct {
	key     serve.ModelKey
	buf     *buffer
	samples []core.Sample
	fresh   int
}

func (c *Controller) runOnce(now time.Time) int {
	c.mu.Lock()
	jobs := make([]tuneJob, 0, len(c.buffers))
	for key, b := range c.buffers {
		if samples, fresh, ok := b.takeIfTriggered(now, c.cfg.MinSamples, c.cfg.MaxStaleness); ok {
			jobs = append(jobs, tuneJob{key: key, buf: b, samples: samples, fresh: fresh})
		}
	}
	c.mu.Unlock()
	if len(jobs) == 0 {
		return 0
	}
	var swapped atomic.Int64
	parallel.ForEach(len(jobs), c.cfg.Workers, func(i int) {
		if c.tune(jobs[i]) {
			swapped.Add(1)
		}
	})
	return int(swapped.Load())
}

// tune fine-tunes a clone of key's served model on the snapshotted
// samples and hot-swaps it in, reporting whether a new version was
// installed. The base version is pinned by its registry generation: if
// the key is evicted (or evicted and reloaded) while the fine-tune
// runs, the swap is refused and the derived model dropped, never
// resurrecting weights of a discarded residency.
func (c *Controller) tune(j tuneJob) (installed bool) {
	defer j.buf.tuneDone()
	// Failures before the fine-tune runs (model load, clone) are
	// infrastructure hiccups: requeue the digested samples so the next
	// scan retries instead of silently discarding the window. A failure
	// of the fine-tune itself does not requeue — retrying the same
	// samples would fail the same way.
	ref, err := c.reg.GetRef(context.Background(), j.key)
	if err != nil {
		c.finetuneErrors.Add(1)
		j.buf.requeue(j.fresh, time.Now(), c.cfg.Interval)
		return false
	}
	clone, err := ref.Model.CloneCore()
	if err != nil {
		c.finetuneErrors.Add(1)
		j.buf.requeue(j.fresh, time.Now(), c.cfg.Interval)
		return false
	}
	j.buf.clearBackoff()
	// Shape validation against the now-known architecture; observations
	// with the wrong property counts are dropped, not fatal. They are
	// purged from the ring too (and counted rejected exactly once
	// there), so they cannot occupy slots and be re-validated by every
	// future fine-tune of this key.
	invalid := func(s core.Sample) bool { return core.ValidateSample(clone.Cfg, s) != nil }
	if removed := j.buf.purge(invalid); removed > 0 {
		c.rejected.Add(int64(removed))
	}
	valid := j.samples[:0]
	for _, s := range j.samples {
		if !invalid(s) {
			valid = append(valid, s)
		}
	}
	if len(valid) == 0 {
		return false
	}
	start := time.Now()
	_, err = clone.Finetune(valid, c.cfg.Finetune)
	c.finetuneNS.Add(int64(time.Since(start)))
	c.finetunes.Add(1)
	if err != nil {
		c.finetuneErrors.Add(1)
		return false
	}
	// Serialize the clone before Swap publishes it: until then the
	// goroutine owns the model exclusively, so the checkpoint bytes need
	// no lock and can never capture a half-updated state. Install hooks
	// (shard replication) consume the same bytes, so the blob is built
	// whenever either consumer exists.
	c.mu.Lock()
	installHooks := c.onInstall
	c.mu.Unlock()
	var blob []byte
	if c.cfg.Checkpoint != nil || len(installHooks) > 0 {
		var buf bytes.Buffer
		if err := clone.Save(&buf); err != nil {
			c.logErrors.Add(1)
		} else {
			blob = buf.Bytes()
		}
	}
	version, ok := c.reg.Swap(j.key, ref.Gen, clone)
	if !ok {
		c.swapsSkipped.Add(1)
		return false
	}
	c.swaps.Add(1)
	// Checkpoint the installed version, then log the digest. The order
	// is the recovery invariant: a digest record promises "a checkpoint
	// of the model that absorbed these samples exists", so replay can
	// mark them digested. A crash between swap and checkpoint (or
	// between checkpoint and digest) leaves the samples fresh in the
	// replayed ring — a harmless re-fine-tune, never lost data.
	if blob != nil && c.cfg.Checkpoint != nil {
		if err := c.cfg.Checkpoint.CheckpointModel(j.key.Job, j.key.Env, version, blob); err != nil {
			c.logErrors.Add(1)
		} else if c.cfg.Log != nil {
			if err := c.cfg.Log.AppendDigest(j.key.Job, j.key.Env, j.fresh, time.Now()); err != nil {
				c.logErrors.Add(1)
			}
		}
	}
	c.mu.Lock()
	hooks := c.onSwap
	c.mu.Unlock()
	for _, fn := range hooks {
		fn(j.key, version)
	}
	if blob != nil {
		for _, fn := range installHooks {
			fn(j.key, version, blob)
		}
	}
	return true
}

// LifecycleStats snapshots the controller counters (implements
// serve.LifecycleStatser, so the counters surface in /v1/stats).
func (c *Controller) LifecycleStats() api.LifecycleStats {
	c.mu.Lock()
	pending := 0
	for _, b := range c.buffers {
		pending += b.pending()
	}
	c.mu.Unlock()
	st := api.LifecycleStats{
		Observations:   c.observations.Load(),
		Rejected:       c.rejected.Load(),
		PendingSamples: pending,
		Finetunes:      c.finetunes.Load(),
		FinetuneErrors: c.finetuneErrors.Load(),
		Swaps:          c.swaps.Load(),
		SwapsSkipped:   c.swapsSkipped.Load(),
		Restored:       c.restored.Load(),
		LogErrors:      c.logErrors.Load(),
	}
	if st.Finetunes > 0 {
		st.MeanFinetuneUsec = float64(c.finetuneNS.Load()/st.Finetunes) / 1e3
	}
	return st
}
