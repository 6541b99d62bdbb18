package serve

import (
	"bytes"
	"hash/maphash"
	"strconv"
	"sync"

	"repro/internal/core"
)

// resultCache memoizes prediction results under a bounded, exact LRU
// policy. Keys are canonical fingerprints of (model key, scale-out,
// property values); values are predicted runtimes in seconds.
//
// It is a flat table. The entries sit in one slice, linked into LRU
// order by int32 positions, each owning the bytes of its key; an
// open-addressed index (linear probing, at most half full,
// backward-shift deletion) maps the 64-bit hash of a key to its entry.
// The hash only finds candidates: an entry answers for a key when the
// key bytes are equal, never on the hash alone. Beyond its key an entry
// costs entryBytes plus two index slots, and at capacity a put reuses
// the evicted entry and, when the new key fits, its key storage.
type resultCache struct {
	cap int

	mu      sync.Mutex
	entries []cacheEntry
	index   []int32 // position in entries + 1, 0 for an empty slot
	// head and tail are the most and least recently used entries, free
	// heads the invalidated ones (linked by next); -1 for none.
	head, tail, free int32
	n                int // entries in use
	keyBytes         int // key storage the entries own
	// epoch counts invalidations. Writers snapshot it before computing
	// a prediction and pass it to put, which discards the result if an
	// invalidation ran in between — otherwise a prediction computed on
	// a model version hot-swapped away mid-flight could be memoized
	// after the swap's invalidation and serve stale values forever.
	epoch uint64
}

type cacheEntry struct {
	key        []byte
	hash       uint64
	val        float64
	prev, next int32
}

// entryBytes is the size of a cacheEntry.
const entryBytes = 48

// DefaultResultCap bounds the memoized results when no capacity is given.
const DefaultResultCap = 4096

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = DefaultResultCap
	}
	return &resultCache{cap: capacity, index: make([]int32, indexSlots(capacity)), head: -1, tail: -1, free: -1}
}

// indexSlots sizes an open-addressed index for n entries: the power of
// two that keeps it at most half full.
func indexSlots(n int) int {
	slots := 4
	for slots < 2*n {
		slots *= 2
	}
	return slots
}

// fpSeed keys the fingerprint hash for the life of the process, so which
// requests share a probe chain is not something a client can arrange.
var fpSeed = maphash.MakeSeed()

// hashFingerprint is the hash lookup and store expect: a request's
// fingerprint is hashed once and the hash handed to both.
func hashFingerprint(fp []byte) uint64 { return maphash.Bytes(fpSeed, fp) }

// get returns the cached value for the fingerprint and whether it was
// present.
func (c *resultCache) get(key []byte) (float64, bool) {
	return c.lookup(hashFingerprint(key), key)
}

// lookup is get for a caller that has hashed the key already.
func (c *resultCache) lookup(hash uint64, key []byte) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, e := c.find(hash, key)
	if e < 0 {
		return 0, false
	}
	c.touch(e)
	return c.entries[e].val, true
}

// snapshot returns the current invalidation epoch. Take it before
// reading the model a result will be computed on.
func (c *resultCache) snapshot() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// put is store for a key held as a string.
func (c *resultCache) put(key string, val float64, epoch uint64) {
	k := []byte(key)
	c.store(hashFingerprint(k), k, val, epoch)
}

// store memoizes val under key (whose hash the caller computed),
// evicting the least recently used entry when the cache is full; the
// key bytes are copied. epoch must be a snapshot taken before the value
// was computed: if any invalidation ran since, the value may derive
// from a replaced model version and is dropped instead of stored (a
// lost memoization at worst — the next miss recomputes on the current
// version).
func (c *resultCache) store(hash uint64, key []byte, val float64, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch {
		return
	}
	slot, e := c.find(hash, key)
	if e >= 0 {
		c.entries[e].val = val
		c.touch(e)
		return
	}
	switch {
	case c.n >= c.cap:
		// At capacity every insert evicts the LRU entry and takes its
		// place: the steady-state miss path allocates nothing unless the
		// key has outgrown the storage it inherits.
		e = c.tail
		c.unindex(e)
		c.unlink(e)
		slot, _ = c.find(hash, key) // the deletion may have moved the chain's end
	case c.free >= 0:
		e = c.free
		c.free = c.entries[e].next
		c.n++
	default:
		c.entries = append(c.entries, cacheEntry{})
		e = int32(len(c.entries) - 1)
		c.n++
	}
	ent := &c.entries[e]
	c.keyBytes -= cap(ent.key)
	if cap(ent.key) < len(key) {
		// Not append onto the old storage, which would double it for a
		// key one byte longer.
		ent.key = append([]byte(nil), key...)
	} else {
		ent.key = append(ent.key[:0], key...)
	}
	c.keyBytes += cap(ent.key)
	ent.hash, ent.val = hash, val
	c.index[slot] = e + 1
	c.pushFront(e)
}

// find probes the index for key. It returns the entry holding it, or -1
// and the empty slot that ends the key's probe chain.
func (c *resultCache) find(hash uint64, key []byte) (slot int, e int32) {
	mask := len(c.index) - 1
	for slot = int(hash) & mask; ; slot = (slot + 1) & mask {
		e = c.index[slot] - 1
		if e < 0 {
			return slot, -1
		}
		if ent := &c.entries[e]; ent.hash == hash && bytes.Equal(ent.key, key) {
			return slot, e
		}
	}
}

// unindex removes entry e from the index and closes the gap: every later
// entry of the run moves back into the hole unless that would put it
// before its home slot, so probe chains stay unbroken without tombstones.
func (c *resultCache) unindex(e int32) {
	mask := len(c.index) - 1
	hole := int(c.entries[e].hash) & mask
	for c.index[hole] != e+1 {
		hole = (hole + 1) & mask
	}
	for i := (hole + 1) & mask; c.index[i] != 0; i = (i + 1) & mask {
		home := int(c.entries[c.index[i]-1].hash) & mask
		if (i-home)&mask >= (i-hole)&mask {
			c.index[hole] = c.index[i]
			hole = i
		}
	}
	c.index[hole] = 0
}

// touch makes e the most recently used entry.
func (c *resultCache) touch(e int32) {
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

func (c *resultCache) unlink(e int32) {
	ent := &c.entries[e]
	if ent.prev >= 0 {
		c.entries[ent.prev].next = ent.next
	} else {
		c.head = ent.next
	}
	if ent.next >= 0 {
		c.entries[ent.next].prev = ent.prev
	} else {
		c.tail = ent.prev
	}
}

func (c *resultCache) pushFront(e int32) {
	ent := &c.entries[e]
	ent.prev, ent.next = -1, c.head
	if c.head >= 0 {
		c.entries[c.head].prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

// invalidatePrefix removes every memoized result whose fingerprint
// starts with prefix and reports how many were dropped. The scan is
// O(cache size), which is fine for its one caller — model hot-swaps,
// which are rare next to predictions. Because fingerprint fields are
// length-prefixed, a model-key prefix can never partially match a
// longer key, so exactly the swapped model's results are dropped.
func (c *resultCache) invalidatePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	n := 0
	for e := c.head; e >= 0; {
		ent := &c.entries[e]
		next := ent.next
		if len(ent.key) >= len(prefix) && string(ent.key[:len(prefix)]) == prefix {
			c.unindex(e)
			c.unlink(e)
			// The entry keeps its key storage for whichever key it holds
			// next.
			ent.key = ent.key[:0]
			ent.next, c.free = c.free, e
			n++
		}
		e = next
	}
	c.n -= n
	return n
}

// len reports the number of memoized results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// bytes reports the heap the cache holds: index, entries and key
// storage.
func (c *resultCache) bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return 4*len(c.index) + entryBytes*cap(c.entries) + c.keyBytes
}

// appendFingerprint appends the canonical cache key of a request to
// dst and returns the extended slice. The key is what the model reads:
// the model key, the scale-out, and each property value by position,
// tagged essential or optional. Property names are not in it — the
// model never reads them (TestPredictionIgnoresPropertyNames), so two
// queries that differ only in names are one prediction. Every string is
// length-prefixed so untrusted values containing delimiter characters
// cannot collide with a different request.
//
// Built into a stack buffer (a batch: into its scratch), a fingerprint
// never becomes a string: a warm cache hit performs zero allocations
// (pinned by TestWarmPredictZeroAlloc), and a miss hands the same bytes
// and their one hash to the cache, which copies them into the entry's
// own storage.
func appendFingerprint(dst []byte, key ModelKey, q core.Query) []byte {
	dst = appendKeyPrefix(dst, key)
	dst = strconv.AppendInt(dst, int64(q.ScaleOut), 10)
	for _, p := range q.Essential {
		dst = append(dst, 'e')
		dst = appendField(dst, p.Value)
	}
	for _, p := range q.Optional {
		dst = append(dst, 'o')
		dst = appendField(dst, p.Value)
	}
	return dst
}

// fpBufLen sizes the stack buffer a single prediction builds its
// fingerprint in; a longer one moves to the heap.
const fpBufLen = 256

// appendKeyPrefix appends the model-key fields of a fingerprint — the
// prefix shared by every memoized result of that model, which is what
// a hot-swap invalidates.
func appendKeyPrefix(dst []byte, key ModelKey) []byte {
	dst = appendField(dst, key.Job)
	return appendField(dst, key.Env)
}

// fingerprint is the allocating convenience form of appendFingerprint,
// for callers off the hot path (tests, debugging).
func fingerprint(key ModelKey, q core.Query) string {
	return string(appendFingerprint(nil, key, q))
}

func appendField(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}
