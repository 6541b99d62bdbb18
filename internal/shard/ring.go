// Package shard is the horizontal scaling tier of the serving stack: a
// consistent-hash router that partitions (job, env) model keys across
// N in-process serve instances, fans batched requests out per shard
// and merges the answers in input order, and forwards observations to
// the owning shard's lifecycle controller. Each shard is a complete
// serving stack — registry, result cache, admission gate, optional
// lifecycle controller and WAL — so the partition point is the model
// key, not the request type: a key's fine-tuned versions are made,
// served and checkpointed on its owner and nowhere else.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-shard virtual node count of the hash
// ring. 64 points per shard keeps the largest/smallest ownership arc
// ratio low (empirically < 1.5x at small shard counts) while the whole
// ring stays a few KB.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over shard IDs 0..N-1.
// Keys hash onto a circle of virtual points; a key is owned by the
// shard of the first point at or clockwise after it. Consistency is
// what keeps ownership stable: adding a shard moves only the arcs
// adjacent to its new points, so a topology change invalidates a
// bounded fraction of each shard's resident set.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
	vnodes int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over shards shard IDs with vnodes virtual
// points each (<= 0 selects DefaultVirtualNodes).
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{shards: shards, vnodes: vnodes, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			// FNV alone clusters on short, similar inputs; a splitmix64
			// finisher spreads the points uniformly around the circle,
			// which is what bounds the largest ownership arc.
			r.points = append(r.points, ringPoint{hash: mix64(hash64(fmt.Sprintf("shard-%d/vnode-%d", s, v))), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Shards reports the shard count.
func (r *Ring) Shards() int { return r.shards }

// VirtualNodes reports the per-shard virtual point count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Owner maps a (job, env) key to its owning shard.
func (r *Ring) Owner(job, env string) int {
	if r.shards == 1 {
		return 0
	}
	h := hashKey(job, env)
	// First point at or after h, wrapping to the start of the circle.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// hashKey hashes a model key with a separator no key part can contain
// (loader file naming rejects NUL and slashes), so ("ab","c") and
// ("a","bc") never collide.
func hashKey(job, env string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(job))
	h.Write([]byte{0})
	h.Write([]byte(env))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche pass over
// an already-distinct 64-bit value.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
