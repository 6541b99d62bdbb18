package nn

import (
	"math/rand"
	"sync"
)

// Generator is math/rand's default source — the additive lagged
// Fibonacci generator x[n] = x[n−607] + x[n−273] mod 2⁶⁴ behind
// rand.NewSource — reproduced state for state, so rand.New over a
// Generator seeded with s draws exactly what rand.New(rand.NewSource(s))
// draws. Unlike that source it can be copied, and Fill draws a run of
// words without a wrap check per word, which is how alpha-dropout takes
// each pass's draws.
type Generator struct {
	tap, feed int
	vec       [genLen]int64
}

const (
	genLen  = 607
	genTap  = 273
	int32mx = 1<<31 - 1
)

// genCooked is math/rand's table of cooked values the seeding XORs into
// its state. It is not copied here but recovered from math/rand itself,
// once (see cookedTable).
var (
	genCooked     [genLen]int64
	genCookedOnce sync.Once
)

// cookedTable recovers math/rand's cooked table: 607 draws of a fresh
// rand source overwrite every state word once, so they are the state
// after them, and undoing the 607 additions in reverse order gives the
// seeded state, whose words are the cooked ones XOR the seed's.
func cookedTable() {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	g := Generator{tap: 0, feed: genLen - genTap}
	for range genLen {
		g.step()
		g.vec[g.feed] = int64(src.Uint64())
	}
	for range genLen { // g.tap and g.feed are back at their seeded values
		g.vec[g.feed] -= g.vec[g.tap]
		g.tap, g.feed = (g.tap+1)%genLen, (g.feed+1)%genLen
	}
	seedWords(&genCooked, seed, &g.vec)
}

// seedrand is math/rand's seeding sequence x[n+1] = 48271·x[n] mod
// (2³¹ − 1), by Schrage's method.
func seedrand(x int32) int32 {
	const a, q, r = 48271, 44488, 3399
	hi, lo := x/q, x%q
	if x = a*lo - r*hi; x < 0 {
		x += int32mx
	}
	return x
}

// seedWords sets dst to the words math/rand's seeding derives from
// seed, each XORed with its word of cooked.
func seedWords(dst *[genLen]int64, seed int64, cooked *[genLen]int64) {
	if seed %= int32mx; seed < 0 {
		seed += int32mx
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < genLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			dst[i] = u ^ int64(x) ^ cooked[i]
		}
	}
}

// Seed puts g where rand.NewSource(seed) starts.
func (g *Generator) Seed(seed int64) {
	genCookedOnce.Do(cookedTable)
	g.tap, g.feed = 0, genLen-genTap
	seedWords(&g.vec, seed, &genCooked)
}

// step moves tap and feed one word down, wrapping.
func (g *Generator) step() {
	if g.tap--; g.tap < 0 {
		g.tap += genLen
	}
	if g.feed--; g.feed < 0 {
		g.feed += genLen
	}
}

// Uint64 returns the next 64 bits of the stream.
func (g *Generator) Uint64() uint64 {
	g.step()
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// Int63 returns the next word with its top bit cleared, as math/rand's
// source does.
func (g *Generator) Int63() int64 { return int64(g.Uint64() &^ (1 << 63)) }

// Fill sets dst to the next len(dst) words of the stream, the words
// len(dst) Uint64 calls would return. Between wraps of tap and feed
// both walk down the state without a check per word.
func (g *Generator) Fill(dst []uint64) {
	for len(dst) > 0 {
		n := min(len(dst), g.tap, g.feed)
		if n == 0 {
			dst[0] = g.Uint64()
			dst = dst[1:]
			continue
		}
		// Word i reads tap−1−i and writes feed−1−i. The two ranges
		// overlap only when feed is 273 below tap and n > 273; word i
		// then reads what word i−273 wrote, which this order has done.
		taps, feeds, out := g.vec[g.tap-n:g.tap], g.vec[g.feed-n:g.feed], dst[:n]
		feeds, out = feeds[:len(taps)], out[:len(taps)]
		for i := range taps {
			k := len(taps) - 1 - i
			x := feeds[k] + taps[k]
			feeds[k] = x
			out[i] = uint64(x)
		}
		g.tap -= n
		g.feed -= n
		dst = dst[n:]
	}
}

// seeded keeps the seeded state of the last seeds asked for, so a model
// and its shard replicas, built over and over with one seed (every Clone
// of a base, every trial of a search), copy 4.9 KB instead of running
// the seeding's 1800 modular steps. Slots are picked by seed; a seed
// evicts whatever held its slot.
var seeded struct {
	sync.Mutex
	slots [16]struct {
		seed int64
		ok   bool
		vec  [genLen]int64
	}
}

// NewGenerator returns a Generator seeded with seed.
func NewGenerator(seed int64) *Generator {
	g := &Generator{tap: 0, feed: genLen - genTap}
	s := &seeded.slots[uint64(seed)%uint64(len(seeded.slots))]
	seeded.Lock()
	if s.ok && s.seed == seed {
		g.vec = s.vec
		seeded.Unlock()
		return g
	}
	seeded.Unlock()
	g.Seed(seed)
	seeded.Lock()
	s.seed, s.ok, s.vec = seed, true, g.vec
	seeded.Unlock()
	return g
}

// Rand is a *rand.Rand with, when it draws from a Generator, the
// generator at hand for bulk draws: weight initialization, shuffling
// and dropout read one stream through either. Gen is nil over another
// source.
type Rand struct {
	*rand.Rand
	Gen *Generator
}

// Fill sets dst to the next len(dst) Uint64 draws.
func (r *Rand) Fill(dst []uint64) {
	if r.Gen != nil {
		r.Gen.Fill(dst)
		return
	}
	for i := range dst {
		dst[i] = r.Uint64()
	}
}

// NewRand returns a Rand whose stream is rand.New(rand.NewSource(seed))'s.
func NewRand(seed int64) *Rand {
	g := NewGenerator(seed)
	return &Rand{Rand: rand.New(g), Gen: g}
}
