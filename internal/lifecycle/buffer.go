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
// The ring is in arrival order, so the fresh samples are its newest
// seen−digested (at most n); a digest record logs the take's seen, so
// replay restores the ordinal the live node holds.
type buffer struct {
	mu       sync.Mutex
	samples  []core.Sample // ring storage; grows lazily up to capLimit
	arrived  []time.Time   // arrived[i] is the arrival time of samples[i]
	capLimit int           // the configured BufferCap
	start    int           // index of the oldest sample
	n        int           // occupied slots

	seen     int  // samples ever added
	digested int  // seen when the last installed fine-tune took the ring
	tuning   bool // a fine-tune for this key is in flight

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
	b.seen++
}

// freshLocked reports the undigested sample count and, when it is
// positive, the oldest undigested sample's arrival, the staleness
// anchor. The caller holds b.mu.
func (b *buffer) freshLocked() (fresh int, oldest time.Time) {
	fresh = max(min(b.seen-b.digested, b.n), 0)
	if fresh > 0 {
		oldest = b.arrived[(b.start+b.n-fresh)%len(b.arrived)]
	}
	return fresh, oldest
}

// pending reports the undigested sample count.
func (b *buffer) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	fresh, _ := b.freshLocked()
	return fresh
}

// takeIfTriggered checks whether the buffer is due for a fine-tune at
// time now — enough fresh samples accumulated, or the oldest fresh
// sample waited past the staleness bound — and if so atomically
// snapshots the full ring contents (oldest first), marks every sample
// digested, and flags the buffer as tuning so a concurrent scan cannot
// start a second fine-tune for the same key. The returned slice is a
// copy (the ring keeps absorbing observations while the fine-tune
// runs).
func (b *buffer) takeIfTriggered(now time.Time, minSamples int, maxStaleness time.Duration) (tuneJob, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fresh, oldest := b.freshLocked()
	if b.tuning || fresh == 0 || now.Before(b.retryAt) {
		return tuneJob{}, false
	}
	stale := maxStaleness > 0 && now.Sub(oldest) >= maxStaleness
	if fresh < minSamples && !stale {
		return tuneJob{}, false
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
func (b *buffer) takeForDrain() (tuneJob, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if fresh, _ := b.freshLocked(); b.tuning || fresh == 0 {
		return tuneJob{}, false
	}
	return b.takeLocked()
}

// takeLocked snapshots the ring (oldest first) into a job for the
// caller to key, marks every sample digested and flags the buffer as
// tuning. The caller holds b.mu and has decided a fine-tune is due.
func (b *buffer) takeLocked() (tuneJob, bool) {
	j := tuneJob{buf: b, samples: make([]core.Sample, b.n), prev: b.digested, through: b.seen}
	for i := range j.samples {
		j.samples[i] = b.samples[(b.start+i)%len(b.samples)]
	}
	b.digested = b.seen
	b.tuning = true
	return j, true
}

// maxBackoffShift caps the exponential retry backoff at base << 6
// (64 scan intervals — half an hour at the default 30s interval).
const maxBackoffShift = 6

// requeue restores the digested ordinal a take replaced (prev) when its
// fine-tune installed nothing (a load or clone failure, a refused swap),
// so the key's observation window stays fresh. The retry is delayed by
// base shifted left per consecutive failure: a transient blip retries
// on the next scans, a permanently un-loadable key (junk observations
// for a model that does not exist) decays to one load attempt per 64
// intervals instead of hammering the loader forever.
func (b *buffer) requeue(prev int, now time.Time, base time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	shift := b.failures
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	b.failures++
	b.retryAt = now.Add(base << shift)
	b.digested = prev
}

// purge removes every buffered sample matching drop (preserving order)
// and reports how many were removed. The fine-tune path uses it to
// evict shape-invalid observations permanently once the model
// architecture is known — otherwise they would occupy ring slots and
// be re-validated (and re-counted) by every future fine-tune.
// The ordinals ignore a purge (a purged fresh sample leaves an older one
// counted fresh), and replay cannot see one: purges are not logged.
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
	return removed
}

// markDigested replays a digest record: through is the seen of the
// take whose fine-tune was checkpointed. Its samples anchor future
// fine-tunes without re-triggering one, while observations logged
// during that fine-tune, before its record, stay fresh as they are live.
// A log replayed past a skipped damaged segment can name more samples
// than the ring saw; capping at seen keeps later arrivals fresh.
func (b *buffer) markDigested(through int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.digested = min(through, b.seen)
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
