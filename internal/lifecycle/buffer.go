package lifecycle

import (
	"sync"
	"time"

	"repro/internal/core"
)

// buffer is one model key's bounded observation ring. Appends past the
// capacity overwrite the oldest sample, so a hot key under heavy
// observation traffic holds the freshest window of its context instead
// of growing without bound. A fine-tune digests the whole ring (old
// samples keep anchoring the context), but only *fresh* samples —
// arrivals since the last digest — count toward the triggers.
type buffer struct {
	mu       sync.Mutex
	samples  []core.Sample // ring storage; grows lazily up to capLimit
	arrived  []time.Time   // arrived[i] is the arrival time of samples[i]
	capLimit int           // the configured BufferCap
	start    int           // index of the oldest sample
	n        int           // occupied slots

	fresh       int       // arrivals since the last digest (<= n)
	oldestFresh time.Time // arrival time of the oldest undigested sample
	tuning      bool      // a fine-tune for this key is in flight

	// Backoff state for keys whose fine-tune attempts die before the
	// fine-tune itself (model load / clone failures): failures counts
	// consecutive such deaths, and the buffer refuses to trigger before
	// retryAt, so a permanently un-loadable key cannot grind the loader
	// (and churn the registry LRU) on every scan.
	failures int
	retryAt  time.Time
}

// initialRingCap bounds the eager allocation of a brand-new key's
// ring: a key observed a handful of times costs a handful of slots,
// not the full BufferCap.
const initialRingCap = 16

func newBuffer(capacity int) *buffer {
	initial := capacity
	if initial > initialRingCap {
		initial = initialRingCap
	}
	return &buffer{samples: make([]core.Sample, initial), arrived: make([]time.Time, initial), capLimit: capacity}
}

// add appends one observation, growing the ring (up to capLimit) or
// overwriting the oldest sample when full.
func (b *buffer) add(s core.Sample, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == len(b.samples) && len(b.samples) < b.capLimit {
		// Grow: double up to the cap, re-linearizing the ring.
		newCap := len(b.samples) * 2
		if newCap > b.capLimit {
			newCap = b.capLimit
		}
		grown, arrived := make([]core.Sample, newCap), make([]time.Time, newCap)
		for i := 0; i < b.n; i++ {
			j := (b.start + i) % len(b.samples)
			grown[i], arrived[i] = b.samples[j], b.arrived[j]
		}
		b.samples, b.arrived = grown, arrived
		b.start = 0
	}
	i := (b.start + b.n) % len(b.samples)
	if b.n == len(b.samples) {
		// Full at cap: the slot being written is the oldest; advance past it.
		b.start = (b.start + 1) % len(b.samples)
	} else {
		b.n++
	}
	b.samples[i], b.arrived[i] = s, now
	if b.fresh == 0 {
		b.oldestFresh = now
	}
	if b.fresh < b.n {
		b.fresh++
	}
}

// pending reports the undigested sample count.
func (b *buffer) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fresh
}

// takeIfTriggered checks whether the buffer is due for a fine-tune at
// time now — enough fresh samples accumulated, or the oldest fresh
// sample waited past the staleness bound — and if so atomically
// snapshots the full ring contents (oldest first), marks every sample
// digested, and flags the buffer as tuning so a concurrent scan cannot
// start a second fine-tune for the same key. The returned slice is a
// copy (the ring keeps absorbing observations while the fine-tune
// runs); fresh is the digested fresh-sample count, the amount requeue
// restores if the attempt dies before fine-tuning.
func (b *buffer) takeIfTriggered(now time.Time, minSamples int, maxStaleness time.Duration) (samples []core.Sample, fresh int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tuning || b.fresh == 0 || now.Before(b.retryAt) {
		return nil, 0, false
	}
	stale := maxStaleness > 0 && now.Sub(b.oldestFresh) >= maxStaleness
	if b.fresh < minSamples && !stale {
		return nil, 0, false
	}
	return b.takeLocked()
}

// takeForDrain snapshots the ring for one final shutdown fine-tune,
// ignoring the sample-count, staleness, and backoff conditions: any
// fresh sample is worth digesting when the process is about to exit,
// because a digested sample becomes a checkpointed model while an
// undigested one costs a replay and a re-fine-tune on the next boot.
// Buffers mid-fine-tune are skipped — their samples are already being
// digested by the in-flight run.
func (b *buffer) takeForDrain() (samples []core.Sample, fresh int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tuning || b.fresh == 0 {
		return nil, 0, false
	}
	return b.takeLocked()
}

// takeLocked snapshots the ring (oldest first), marks every sample
// digested and flags the buffer as tuning. The caller holds b.mu and
// has decided a fine-tune is due.
func (b *buffer) takeLocked() (samples []core.Sample, fresh int, ok bool) {
	out := make([]core.Sample, b.n)
	for i := 0; i < b.n; i++ {
		out[i] = b.samples[(b.start+i)%len(b.samples)]
	}
	fresh = b.fresh
	b.fresh = 0
	b.tuning = true
	return out, fresh, true
}

// maxBackoffShift caps the exponential retry backoff at base << 6
// (64 scan intervals — half an hour at the default 30s interval).
const maxBackoffShift = 6

// requeue restores the freshness of n samples after a fine-tune
// attempt failed before digesting them (model load or clone failure),
// so a transient infrastructure error does not silently discard the
// key's observation window. The retry is delayed by base shifted left
// per consecutive failure: a transient blip retries on the next scans,
// a permanently un-loadable key (junk observations for a model that
// does not exist) decays to one load attempt per 64 intervals instead
// of hammering the loader forever. Freshness restoration is capped at
// the ring occupancy: samples overwritten in the meantime are gone
// regardless.
func (b *buffer) requeue(n int, now time.Time, base time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	shift := b.failures
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	b.failures++
	b.retryAt = now.Add(base << shift)
	if n <= 0 {
		return
	}
	if b.fresh == 0 {
		b.oldestFresh = now
	}
	b.fresh += n
	if b.fresh > b.n {
		b.fresh = b.n
	}
}

// purge removes every buffered sample matching drop (preserving order)
// and reports how many were removed. The fine-tune path uses it to
// evict shape-invalid observations permanently once the model
// architecture is known — otherwise they would occupy ring slots and
// be re-validated (and re-counted) by every future fine-tune.
func (b *buffer) purge(drop func(core.Sample) bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	kept := make([]core.Sample, 0, b.n)
	arrived := make([]time.Time, 0, b.n)
	for i := 0; i < b.n; i++ {
		j := (b.start + i) % len(b.samples)
		if s := b.samples[j]; !drop(s) {
			kept, arrived = append(kept, s), append(arrived, b.arrived[j])
		}
	}
	removed := b.n - len(kept)
	if removed == 0 {
		return 0
	}
	copy(b.samples, kept)
	copy(b.arrived, arrived)
	for i := len(kept); i < len(b.samples); i++ {
		b.samples[i] = core.Sample{} // drop property-slice references
	}
	b.start = 0
	b.n = len(kept)
	if b.fresh > b.n {
		b.fresh = b.n
	}
	return removed
}

// markDigested takes the freshness of n buffered samples, the oldest
// fresh ones, without snapshotting them. Boot replay uses it when a
// digest record follows the samples in the log: they were digested by
// a fine-tune whose result is checkpointed, so they must anchor future
// fine-tunes without re-triggering one. Observations that arrived while
// that fine-tune ran precede its record in the log but stay fresh, as
// they are on the live node, and the oldest of them becomes the
// staleness anchor.
func (b *buffer) markDigested(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fresh = max(b.fresh-n, 0)
	if b.fresh > 0 {
		b.oldestFresh = b.arrived[(b.start+b.n-b.fresh)%len(b.arrived)]
	}
}

// clearBackoff resets the failure state once an attempt gets past the
// load/clone stage again.
func (b *buffer) clearBackoff() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.retryAt = time.Time{}
}

// tuneDone clears the tuning flag, re-arming the triggers.
func (b *buffer) tuneDone() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tuning = false
}
