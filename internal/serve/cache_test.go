package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// refCache is the reference the flat resultCache is checked against: a
// map for the values and a slice of keys in LRU order, least recent
// first.
type refCache struct {
	cap   int
	vals  map[string]float64
	order []string
	epoch uint64
}

func (r *refCache) touch(key string) {
	i := slices.Index(r.order, key)
	r.order = append(slices.Delete(r.order, i, i+1), key)
}

func (r *refCache) get(key string) (float64, bool) {
	v, ok := r.vals[key]
	if ok {
		r.touch(key)
	}
	return v, ok
}

func (r *refCache) put(key string, val float64, epoch uint64) {
	if epoch != r.epoch {
		return
	}
	if _, ok := r.vals[key]; ok {
		r.touch(key)
	} else {
		if len(r.order) == r.cap {
			delete(r.vals, r.order[0])
			r.order = r.order[1:]
		}
		r.order = append(r.order, key)
	}
	r.vals[key] = val
}

func (r *refCache) invalidatePrefix(prefix string) int {
	r.epoch++
	kept := r.order[:0]
	for _, k := range r.order {
		if strings.HasPrefix(k, prefix) {
			delete(r.vals, k)
		} else {
			kept = append(kept, k)
		}
	}
	n := len(r.order) - len(kept)
	r.order = kept
	return n
}

// lruOrder lists the cache's keys least recently used first, checking
// the links both ways, the index and the entry count on the way.
func (c *resultCache) lruOrder(t testing.TB) []string {
	t.Helper()
	var keys []string
	next := int32(-1)
	for e := c.tail; e >= 0; e = c.entries[e].prev {
		ent := &c.entries[e]
		if ent.next != next {
			t.Fatalf("entry %d: next = %d, want %d", e, ent.next, next)
		}
		if _, found := c.find(ent.hash, ent.key); found != e {
			t.Fatalf("entry %d (%q) is linked but the index finds %d", e, ent.key, found)
		}
		keys = append(keys, string(ent.key))
		next = e
	}
	if c.head != next || len(keys) != c.n {
		t.Fatalf("head = %d after walking to %d; %d linked entries, n = %d", c.head, next, len(keys), c.n)
	}
	live := 0
	for _, e := range c.index {
		if e != 0 {
			live++
		}
	}
	if live != c.n {
		t.Fatalf("index holds %d entries, n = %d", live, c.n)
	}
	return keys
}

// checkCacheOps drives a flat cache and the reference through the same
// operations, decoded from ops two bytes at a time, and fails on the
// first difference in a hit, a value, the length or the eviction order.
// hashMask narrows the hash the cache is given, so that a mask of 7
// crowds every key into eight probe chains: collisions, wrap-around at
// the end of the index and backward shifts on every deletion.
func checkCacheOps(t testing.TB, capacity int, hashMask uint64, ops []byte) {
	t.Helper()
	c := newResultCache(capacity)
	ref := &refCache{cap: capacity, vals: map[string]float64{}}
	hash := func(key string) uint64 { return hashFingerprint([]byte(key)) & hashMask }
	models := []string{"4:sort3:c3o", "4:grep3:c3o", "3:sgd4:bell"}
	keyOf := func(b byte) string {
		// A few times the capacity in distinct keys, over three models.
		n := int(b) % (3*capacity + 5)
		return fmt.Sprintf("%s%d", models[n%len(models)], n)
	}
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := ops[step], ops[step+1]
		key := keyOf(arg)
		what := ""
		switch {
		case op < 100:
			what = fmt.Sprintf("get(%q)", key)
			got, hit := c.lookup(hash(key), []byte(key))
			want, wantHit := ref.get(key)
			if hit != wantHit || got != want {
				t.Fatalf("step %d: %s = %v, %v; reference %v, %v", step/2, what, got, hit, want, wantHit)
			}
		case op < 220:
			what = fmt.Sprintf("put(%q)", key)
			val := float64(step)
			c.store(hash(key), []byte(key), val, c.snapshot())
			ref.put(key, val, ref.epoch)
		case op < 235:
			what = fmt.Sprintf("stale put(%q)", key)
			epoch := c.snapshot()
			c.invalidatePrefix("no such model")
			ref.invalidatePrefix("no such model")
			c.store(hash(key), []byte(key), -1, epoch)
			ref.put(key, -1, ref.epoch-1)
		default:
			prefix := models[int(arg)%len(models)]
			what = fmt.Sprintf("invalidatePrefix(%q)", prefix)
			if got, want := c.invalidatePrefix(prefix), ref.invalidatePrefix(prefix); got != want {
				t.Fatalf("step %d: %s dropped %d, reference %d", step/2, what, got, want)
			}
		}
		if c.len() != len(ref.order) {
			t.Fatalf("step %d: after %s len = %d, reference %d", step/2, what, c.len(), len(ref.order))
		}
		if got := c.lruOrder(t); !slices.Equal(got, ref.order) {
			t.Fatalf("step %d: after %s LRU order\n%q, reference\n%q", step/2, what, got, ref.order)
		}
	}
}

// TestResultCacheMatchesReference is the seeded model check: random
// interleavings of get, put, a put that lost a race with an invalidation
// and prefix invalidation, at a capacity of one, two, seven and the
// default, with the full hash and with three bits of it.
func TestResultCacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, DefaultResultCap} {
		for _, mask := range []uint64{^uint64(0), 7} {
			steps := 3000
			if capacity == DefaultResultCap {
				// Walking the whole LRU list after every step is the cost;
				// the small caches carry the interleavings, this one the
				// default geometry, filled past capacity below.
				steps = 300
			}
			t.Run(fmt.Sprintf("cap=%d/mask=%#x", capacity, mask), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity)))
				ops := make([]byte, 2*steps)
				rng.Read(ops)
				checkCacheOps(t, capacity, mask, ops)
			})
		}
	}
}

// TestResultCacheEvictsInOrderAtDefaultCapacity fills the default-sized
// cache three times over under a three-bit hash — 12288 keys down eight
// probe chains — touching every fifth key on the way, and compares what
// is left and in which order with the reference.
func TestResultCacheEvictsInOrderAtDefaultCapacity(t *testing.T) {
	c := newResultCache(0)
	ref := &refCache{cap: DefaultResultCap, vals: map[string]float64{}}
	for i := 0; i < 3*DefaultResultCap; i++ {
		key := fmt.Sprintf("4:sort3:c3o%d", i)
		h := hashFingerprint([]byte(key)) & 7
		c.store(h, []byte(key), float64(i), c.snapshot())
		ref.put(key, float64(i), 0)
		if i%5 == 0 {
			old := fmt.Sprintf("4:sort3:c3o%d", i/2)
			_, hit := c.lookup(hashFingerprint([]byte(old))&7, []byte(old))
			if _, want := ref.get(old); hit != want {
				t.Fatalf("get(%q) hit = %v, reference %v", old, hit, want)
			}
		}
	}
	if got := c.lruOrder(t); !slices.Equal(got, ref.order) {
		t.Fatalf("LRU order after %d puts differs from the reference", 3*DefaultResultCap)
	}
}

// FuzzResultCacheOps is the model check with the fuzzer choosing the
// operations.
func FuzzResultCacheOps(f *testing.F) {
	f.Add(uint8(2), true, []byte{120, 1, 120, 2, 120, 3, 50, 2, 240, 0, 225, 1})
	f.Add(uint8(7), false, []byte{120, 0, 120, 3, 120, 6, 240, 0, 120, 9, 50, 3})
	f.Fuzz(func(t *testing.T, capacity uint8, narrow bool, ops []byte) {
		mask := ^uint64(0)
		if narrow {
			mask = 7
		}
		checkCacheOps(t, 1+int(capacity)%16, mask, ops)
	})
}

// TestResultCacheComparesKeys: two different keys stored under one hash
// are two entries, each answering only for its own bytes.
func TestResultCacheComparesKeys(t *testing.T) {
	c := newResultCache(8)
	c.store(42, []byte("a"), 1, c.snapshot())
	c.store(42, []byte("b"), 2, c.snapshot())
	for key, want := range map[string]float64{"a": 1, "b": 2} {
		if v, ok := c.lookup(42, []byte(key)); !ok || v != want {
			t.Fatalf("lookup(%q) = %v, %v, want %v", key, v, ok, want)
		}
	}
	if _, ok := c.lookup(42, []byte("c")); ok {
		t.Fatal("a key never stored was answered on its hash alone")
	}
}

// TestResultCacheFootprint pins the layout's cost: a full default-sized
// cache of 190-byte keys holds at most 64 bytes per entry beyond the key
// bytes, bytes() accounts for what the heap shows, and at capacity a put
// whose key fits the evicted entry's storage allocates nothing. At the
// benchmark's query shape an entry, key included, holds at most
// maxBenchEntry bytes.
func TestResultCacheFootprint(t *testing.T) {
	if got := reflect.TypeOf(cacheEntry{}).Size(); got != entryBytes {
		t.Fatalf("cacheEntry is %d bytes, entryBytes says %d", got, entryBytes)
	}
	const n, keyLen = DefaultResultCap, 190
	key := func(i int) []byte {
		return []byte(fmt.Sprintf("%0*d", keyLen, i))
	}
	keys := make([][]byte, 2*n)
	for i := range keys {
		keys[i] = key(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := newResultCache(n)
	for _, k := range keys[:n] {
		c.store(hashFingerprint(k), k, 1, 0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int(after.HeapAlloc) - int(before.HeapAlloc)
	if budget := n * (keyLen + 64); held > budget || c.bytes() > budget {
		t.Fatalf("%d entries of %d-byte keys hold %d B of heap (bytes() = %d), budget %d", n, keyLen, held, c.bytes(), budget)
	}
	if diff := held - c.bytes(); diff < -32<<10 || diff > 32<<10 {
		t.Fatalf("bytes() = %d, the heap grew by %d", c.bytes(), held)
	}
	t.Logf("%d entries: %d B on the heap, %.1f B per entry beyond the key", n, held, float64(held)/n-keyLen)

	i := n
	if allocs := testing.AllocsPerRun(n/2, func() {
		k := keys[i]
		c.store(hashFingerprint(k), k, 2, 0)
		i++
	}); allocs != 0 {
		t.Fatalf("a put at capacity with a same-length key allocates %.1f/op, want 0", allocs)
	}
	if c.len() != n {
		t.Fatalf("len = %d after evicting puts, want %d", c.len(), n)
	}
	runtime.KeepAlive(c)

	// serve-cold's queries: the eight served (job, env) keys, each with a
	// C3O context of its job, a never-repeated dataset size and a
	// scale-out of 2 to 12.
	const maxBenchEntry = 160
	ds := dataset.GenerateC3O(dataset.SimConfig{Seed: 1})
	bench := newResultCache(n)
	var fp []byte
	for g := 0; g < n; g++ {
		job := []string{"grep", "pagerank", "sgd", "sort"}[g/2%4]
		env := []string{"c3o", "bell"}[g%2]
		ctx := *ds.Contexts(job)[0]
		ctx.DatasetSizeMB = 2000 + g
		q := core.Query{ScaleOut: 2 + g%11, Essential: ctx.EssentialProps(), Optional: ctx.OptionalProps()}
		fp = appendFingerprint(fp[:0], ModelKey{Job: job, Env: env}, q)
		bench.store(hashFingerprint(fp), fp, 1, 0)
	}
	perEntry := float64(bench.bytes()) / n
	t.Logf("benchmark-shaped entries: %.1f B each, key included (last key %d B: %q)", perEntry, len(fp), fp)
	if perEntry > maxBenchEntry {
		t.Fatalf("a benchmark-shaped entry holds %.1f B, ceiling %d", perEntry, maxBenchEntry)
	}
}
