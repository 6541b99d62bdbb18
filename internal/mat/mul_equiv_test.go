package mat

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

// The float64 products are the reference loops of mul_ref.go, so they
// are pinned to them bit for bit. The float32 kernels, which reorder
// summation, are validated against the same references to epsilon
// tolerance in mul32_equiv_test.go and kernel32_test.go, over the shape
// tables defined here; the reference kernels themselves are pinned
// bit-identically below.

// raggedDim draws a dimension from 1..67, one draw in three below 8.
func raggedDim(rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		return 1 + rng.Intn(7) // tiny: below one tile
	}
	return 1 + rng.Intn(67)
}

// setFamily forces the kernel family for the duration of a test,
// restoring it on cleanup. Only for serial tests: useAsm is read
// lock-free by every kernel.
func setFamily(t *testing.T, asm bool) {
	t.Helper()
	old := useAsm
	t.Cleanup(func() { useAsm = old })
	useAsm = asm
}

// testFamilies returns every kernel family runnable on this build and
// CPU, as values of useAsm: plain always, asm when hasAsm.
func testFamilies() []bool {
	if hasAsm {
		return []bool{false, true}
	}
	return []bool{false}
}

// TestKernelFamilyFollowsCPU pins the selection rule: the process runs
// the asm family exactly when the build and CPU have the kernels, and
// plain otherwise (always, under -tags noasm).
func TestKernelFamilyFollowsCPU(t *testing.T) {
	want := "plain"
	if hasAsm {
		want = "asm"
	}
	if got := KernelFamily(); got != want {
		t.Fatalf("KernelFamily() = %q with hasAsm=%v, want %q", got, hasAsm, want)
	}
}

// issuedShapes are the products the system actually issues, as m x k x
// n of a*b: the six layers of a 250-query serving batch (the
// BenchmarkServeShape table), their single-predict forms, the encoder
// products of a 256-query batch (1792x40x8) and of a 64-sample training
// step and its two shards (448x40x8, 224x40x8; 448x8x40, the decoder's;
// 40x448x8, the operands of a weight gradient under MulATBTo) — and the
// encoder product of a batch of ~1870 queries (13108x40x8), seven times
// the largest a serve-cold batch issues.
var issuedShapes = []struct{ m, k, n int }{
	{1750, 40, 8}, {250, 3, 16}, {250, 16, 8}, {1750, 8, 4}, {250, 28, 8}, {250, 8, 1},
	{7, 40, 8}, {1, 3, 16}, {1, 16, 8}, {7, 8, 4}, {1, 28, 8}, {1, 8, 1}, {1, 40, 8}, {1, 8, 4},
	{1792, 40, 8}, {448, 40, 8}, {224, 40, 8}, {40, 448, 8}, {448, 8, 40},
	{13108, 40, 8},
}

// gradShapes are the gradient products one 32-sample shard of a
// pre-training step issues at DefaultConfig, as m x k x n. The weight
// gradients dW += xᵀ·dY run as MulATBAcc with x k x m and dY k x n:
// g's second layer (224x8ᵀ·224x4), its first on the shard's distinct
// property rows (47x40ᵀ·47x8), h's first (224x4ᵀ·224x8), z's two
// (32x28ᵀ·32x8, 32x8ᵀ·32x1) and f's two (32x3ᵀ·32x16, 32x16ᵀ·32x8).
// The input gradients dX = dY·Wᵀ run as MulABTTo with dY m x k and W
// n x k: g's second layer, h's first, z's two and f's second.
var gradShapes = []struct{ m, k, n int }{
	{8, 224, 4}, {40, 47, 8}, {4, 224, 8}, {28, 32, 8}, {8, 32, 1}, {3, 32, 16}, {16, 32, 8},
	{224, 4, 8}, {224, 8, 4}, {32, 8, 28}, {32, 1, 8}, {32, 8, 16},
}

// The float64 products are pinned to their reference loops bit for bit
// in two halves: the three quick checks draw ragged shapes (dims
// 1..67) from random seeds, and TestAllKernelFamiliesMatchRef walks the
// k = 0 and n = 1 edges, issuedShapes and gradShapes under every kernel
// family. Every destination but MulATBAcc's starts as garbage.

func TestQuickMulToMatchesRef(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := raggedDim(rng), raggedDim(rng), raggedDim(rng)
		a := randomDense(rng, m, k)
		b := randomDense(rng, k, n)
		want := garbageDense(m, n)
		refMulTo(want, a, b)
		dst := garbageDense(m, n)
		MulTo(dst, a, b)
		return sameBits(dst, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulATBMatchesRef(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, ca, cb := raggedDim(rng), raggedDim(rng), raggedDim(rng)
		a := randomDense(rng, r, ca)
		b := randomDense(rng, r, cb)
		want := garbageDense(ca, cb)
		refMulATBTo(want, a, b)
		dst := garbageDense(ca, cb)
		MulATBTo(dst, a, b)
		if !sameBits(dst, want) {
			return false
		}
		prior := randomDense(rng, ca, cb)
		want, dst = prior.Clone(), prior.Clone()
		refMulATBAcc(want, a, b)
		MulATBAcc(dst, a, b)
		return sameBits(dst, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulABTMatchesRef(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ra, rb, c := raggedDim(rng), raggedDim(rng), raggedDim(rng)
		a := randomDense(rng, ra, c)
		b := randomDense(rng, rb, c)
		want := garbageDense(ra, rb)
		refMulABTTo(want, a, b)
		dst := garbageDense(ra, rb)
		MulABTTo(dst, a, b)
		return sameBits(dst, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sameBits reports whether got and want have one shape and bit-equal
// elements.
func sameBits(got, want *Dense) bool {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return false
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			return false
		}
	}
	return true
}

// TestAllKernelFamiliesMatchRef pins every float64 product to its
// reference loop bit for bit under each kernel family — the family
// steers only the float32 kernels — over the k = 0 and n = 1 edges,
// issuedShapes and gradShapes: MulTo, MulATBTo, MulATBAcc onto a
// dst that holds values, and MulABTTo. Each shape is a*b's m x k x n;
// aᵀ*b and a*bᵀ take the same operands transposed.
func TestAllKernelFamiliesMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	shapes := []struct{ m, k, n int }{{5, 0, 3}, {1, 0, 1}, {33, 29, 1}, {1, 1, 1}, {37, 23, 19}, {70, 67, 66}, {12, 300, 41}}
	shapes = append(shapes, issuedShapes...)
	shapes = append(shapes, gradShapes...)
	for _, asm := range testFamilies() {
		setFamily(t, asm)
		for _, s := range shapes {
			name := fmt.Sprintf("family=%s/%dx%dx%d", KernelFamily(), s.m, s.k, s.n)
			a := randomDense(rng, s.m, s.k)
			b := randomDense(rng, s.k, s.n)
			at, bt := transpose(a), transpose(b)

			want := garbageDense(s.m, s.n)
			refMulTo(want, a, b)
			got := garbageDense(s.m, s.n)
			MulTo(got, a, b)
			bitIdentical(t, "MulTo/"+name, got, want)

			want, got = garbageDense(s.m, s.n), garbageDense(s.m, s.n)
			refMulATBTo(want, at, b)
			MulATBTo(got, at, b)
			bitIdentical(t, "MulATBTo/"+name, got, want)
			prior := randomDense(rng, s.m, s.n)
			want, got = prior.Clone(), prior.Clone()
			refMulATBAcc(want, at, b)
			MulATBAcc(got, at, b)
			bitIdentical(t, "MulATBAcc/"+name, got, want)

			want, got = garbageDense(s.m, s.n), garbageDense(s.m, s.n)
			refMulABTTo(want, a, bt)
			MulABTTo(got, a, bt)
			bitIdentical(t, "MulABTTo/"+name, got, want)
		}
	}
}

// TestRefKernelsBitIdentical pins the oracle itself: every reference
// kernel must match an At()-indexed textbook triple loop bit for bit,
// and the transposed references must match refMulTo on explicitly
// transposed operands bit for bit (their summation orders coincide by
// construction).
func TestRefKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomDense(rng, 13, 9)
	b := randomDense(rng, 9, 11)

	want := NewDense(13, 11)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				want.Data[i*want.Cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	got := garbageDense(13, 11)
	refMulTo(got, a, b)
	bitIdentical(t, "refMulTo", got, want)

	gotATB := garbageDense(13, 11)
	refMulATBTo(gotATB, transpose(a), b)
	bitIdentical(t, "refMulATBTo", gotATB, want)

	gotABT := garbageDense(13, 11)
	refMulABTTo(gotABT, a, transpose(b))
	bitIdentical(t, "refMulABTTo", gotABT, want)
}

// TestMulNestedParallelism runs MulTo and MulToF32 from many concurrent
// callers sharing read-only operands — the shape of experiments and
// hyperopt running one training per core — and checks every product
// against the oracle. CI runs it under -race.
func TestMulNestedParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomDense(rng, 96, 48)
	b := randomDense(rng, 48, 32)
	a32, a64 := randomDense32(rng, 96, 48)
	b32, b64 := randomDense32(rng, 48, 32)
	want := NewDense(96, 32)
	refMulTo(want, a, b)
	want32 := NewDense(96, 32)
	refMulTo(want32, a64, b64)
	parallel.ForEach(16, 8, func(i int) {
		got := NewDense(96, 32)
		MulTo(got, a, b)
		got32 := NewDenseF32(96, 32)
		MulToF32(got32, a32, b32)
		for j := range want.Data {
			if got.Data[j] != want.Data[j] || !tolClose32(got32.Data[j], want32.Data[j], 48) {
				t.Errorf("concurrent product %d diverged at %d", i, j)
				return
			}
		}
	})
}
