package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// drawBoth runs one operation, chosen by op, on a Rand over a Generator
// and on a math/rand Rand, and reports the first difference: every
// method the network's initialization, shuffling and dropout call, and
// Fill runs of up to 700 words, past the 607-word state.
func drawBoth(t testing.TB, got *Rand, want *rand.Rand, op byte, arg int) {
	t.Helper()
	same := func(name string, g, w any) {
		if g != w {
			t.Fatalf("%s: generator %v, math/rand %v", name, g, w)
		}
	}
	n := 1 + arg%700
	switch op % 8 {
	case 0:
		same("Uint64", got.Uint64(), want.Uint64())
	case 1:
		same("Int63", got.Int63(), want.Int63())
	case 2:
		same("Float64", math.Float64bits(got.Float64()), math.Float64bits(want.Float64()))
	case 3:
		same("NormFloat64", math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64()))
	case 4:
		same("Intn", got.Intn(n), want.Intn(n))
	case 5:
		a, b := make([]int, n), make([]int, n)
		for i := range a {
			a[i], b[i] = i, i
		}
		got.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		want.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
		for i := range a {
			same("Shuffle", a[i], b[i])
		}
	case 6:
		a, b := got.Perm(n), want.Perm(n)
		for i := range a {
			same("Perm", a[i], b[i])
		}
	case 7:
		words := make([]uint64, n)
		got.Fill(words)
		for _, w := range words {
			same("Fill", w, want.Uint64())
		}
	}
}

// TestGeneratorMatchesMathRand: a Rand over a Generator draws what
// math/rand's source draws from the same seed — through every method
// the network reads, interleaved with Fill runs that cross the state's
// wrap — for seeds at the edges of the seeding's reduction mod 2³¹−1.
// Every initial weight, shuffle and dropout mask depends on it.
func TestGeneratorMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, 1 << 40, math.MinInt64} {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := range 400 {
			drawBoth(t, got, want, byte(i*7+i/8), i*131)
		}
		// A copy of a generator carries on with the same stream.
		cp := *got.Gen
		if a, b := cp.Uint64(), got.Gen.Uint64(); a != b {
			t.Fatalf("seed %d: a copied generator drew %d, the original %d", seed, a, b)
		}
	}
}

// TestNewGeneratorMemoized: a seed asked for again copies its seeded
// state, and so starts the stream Seed starts, from any slot state.
func TestNewGeneratorMemoized(t *testing.T) {
	for _, seed := range []int64{3, 3 + 16, 3, -5, 3} {
		a := NewGenerator(seed)
		var b Generator
		b.Seed(seed)
		for range 700 {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("seed %d: memoized generator drew %d, a seeded one %d", seed, x, y)
			}
		}
	}
}

// TestNewGeneratorConcurrent: models are built in parallel (search
// trials, experiment cells), so goroutines seeding through the memo at
// once, on shared and on colliding seeds, each get their seed's stream.
func TestNewGeneratorConcurrent(t *testing.T) {
	seeds := []int64{1, 17, 33, 2, 1 + 0x5DEECE66D}
	want := make([]uint64, len(seeds))
	for i, s := range seeds {
		want[i] = rand.New(rand.NewSource(s)).Uint64()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(seeds))
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				k := (g + i) % len(seeds)
				if got := NewGenerator(seeds[k]).Uint64(); got != want[k] {
					errs <- fmt.Sprintf("seed %d drew %d first, math/rand %d", seeds[k], got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// FuzzGenerator: for any seed and any sequence of operations, a Rand
// over a Generator draws what math/rand draws.
func FuzzGenerator(f *testing.F) {
	f.Add(int64(1), []byte{7, 200, 0, 5, 7, 255, 3})
	f.Add(int64(-1), []byte{5, 6, 4, 2, 1, 0})
	f.Add(int64(math.MinInt64), []byte{7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i+1 < len(ops); i += 2 {
			drawBoth(t, got, want, ops[i], int(ops[i+1])*3)
		}
	})
}

// BenchmarkGenerator compares the ways to take a dropout pass's 448
// words: math/rand word by word, the generator word by word, and Fill;
// and a generator's construction with math/rand's.
func BenchmarkGenerator(b *testing.B) {
	words := make([]uint64, 448)
	b.Run("mathrand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			for j := range words {
				words[j] = r.Uint64()
			}
		}
	})
	b.Run("uint64", func(b *testing.B) {
		g := NewGenerator(1)
		for i := 0; i < b.N; i++ {
			for j := range words {
				words[j] = g.Uint64()
			}
		}
	})
	b.Run("fill", func(b *testing.B) {
		g := NewGenerator(1)
		for i := 0; i < b.N; i++ {
			g.Fill(words)
		}
	})
	b.Run("new/mathrand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rand.NewSource(int64(i))
		}
	})
	b.Run("new/seed", func(b *testing.B) {
		var g Generator
		for i := 0; i < b.N; i++ {
			g.Seed(int64(i))
		}
	})
	b.Run("new/memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewGenerator(1)
		}
	})
}
