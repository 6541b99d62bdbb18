package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

func randDense(rows, cols int, rng *rand.Rand) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// BenchmarkMatMul times the float64 reference loop at the network's
// skinny batch-times-weights shapes and at square products, the larger
// two far past any layer width.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ m, k, n int }{
		{64, 40, 8},     // property batch x encoder weights
		{1000, 43, 16},  // 1k-request serving batch x hidden layer
		{128, 128, 128}, // square
		{256, 256, 256}, // square
		{512, 512, 512}, // square, B past L2
	}
	for _, s := range shapes {
		a := randDense(s.m, s.k, rng)
		c := randDense(s.k, s.n, rng)
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			b.SetBytes(int64(8 * s.m * s.k * s.n))
			for i := 0; i < b.N; i++ {
				mul(a, c)
			}
		})
	}
}

// BenchmarkMulSizes sweeps square MulTo products, on the float64
// reference loop, from 16^3 to sizes whose B operand no longer fits L2
// (the loop streams B from L3 or memory on every output row). No
// caller issues anything past 40 wide.
func BenchmarkMulSizes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 32, 64, 128, 256, 512, 1024} {
		a := randDense(n, n, rng)
		c := randDense(n, n, rng)
		dst := NewDense(n, n)
		b.Run(fmt.Sprintf("%dx%dx%d", n, n, n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * n * n))
			for i := 0; i < b.N; i++ {
				MulTo(dst, a, c)
			}
		})
	}
}

// BenchmarkMatMulTransposed covers the backward-pass products.
func BenchmarkMatMulTransposed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randDense(256, 64, rng)
	g := randDense(256, 32, rng)
	dw := NewDense(64, 32)
	b.Run("ATB_256x64x32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulATBTo(dw, x, g)
		}
	})
	w := randDense(64, 32, rng)
	dx := NewDense(256, 64)
	b.Run("ABT_256x32x64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MulABTTo(dx, g, w)
		}
	})
}
