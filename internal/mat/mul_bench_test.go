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

// BenchmarkMatMul covers the product shapes of the Bellamy hot path:
// skinny batch-times-weights products below the parallel threshold and
// square products, the larger two above it (where Mul fans rows across
// cores).
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ m, k, n int }{
		{64, 40, 8},     // property batch x encoder weights (serial)
		{1000, 43, 16},  // 1k-request serving batch x hidden layer
		{128, 128, 128}, // square, serial
		{256, 256, 256}, // square, parallel path
		{512, 512, 512}, // square, parallel path, B past L2
	}
	for _, s := range shapes {
		a := randDense(s.m, s.k, rng)
		c := randDense(s.k, s.n, rng)
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			b.SetBytes(int64(8 * s.m * s.k * s.n))
			for i := 0; i < b.N; i++ {
				Mul(a, c)
			}
		})
	}
}

// BenchmarkMulSizes sweeps square products from below the register-tile
// width (direct kernel) across parallelThreshold (256^3 is the first
// size on the worker pool) to sizes whose B operand no longer fits L2.
// No caller issues anything past 40 wide: 256^3 is the CI bench gate's
// reference size, and 512^3/1024^3 record what the direct kernels cost
// on shapes they are not tuned for (they stream B from L3 or memory on
// every output-row pass).
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

// BenchmarkPoolCrossover is the sweep parallelThreshold is set from:
// the direct kernel against the same kernel fanned over the worker pool,
// shape by shape in adjacent sub-benchmarks, on the products serving
// and training issue (all of which the pool loses) and on square and
// skinny shapes either side of the constant. Run it at GOMAXPROCS=2
// with a fixed -benchtime Nx and -count 3; the threshold belongs where
// "pool" first beats "direct".
func BenchmarkPoolCrossover(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type shape struct{ m, k, n int }
	for _, s := range []shape{
		{896, 40, 8}, {1792, 40, 8}, // serve-cold: encoder layer 1, 128 and 256 queries
		{14336, 40, 8}, {28672, 40, 8}, {70000, 40, 8}, // up to the 10k-query batch limit
		{128, 128, 128}, {160, 160, 160}, {192, 192, 192}, {256, 256, 256},
	} {
		a, _ := randomDense32(rng, s.m, s.k)
		w, _ := randomDense32(rng, s.k, s.n)
		dst := NewDenseF32(s.m, s.n)
		name := fmt.Sprintf("f32/%dx%dx%d", s.m, s.k, s.n)
		b.Run(name+"/direct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				mulRows32(dst, a, w, 0, s.m)
			}
		})
		b.Run(name+"/pool", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				mulRows32Pool(dst, a, w)
			}
		})
	}
	for _, s := range []shape{
		{224, 8, 40}, {448, 8, 40}, {224, 40, 8}, {448, 40, 8}, // a training step's decoder and encoder, shard and whole
		{8192, 40, 8}, {16384, 40, 8}, {32768, 40, 8},
		{128, 128, 128}, {160, 160, 160}, {192, 192, 192}, {256, 256, 256},
	} {
		a := randomDense(rng, s.m, s.k)
		w := randomDense(rng, s.k, s.n)
		dst := NewDense(s.m, s.n)
		name := fmt.Sprintf("f64/%dx%dx%d", s.m, s.k, s.n)
		b.Run(name+"/direct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				mulRows(dst, a, w, 0, s.m)
			}
		})
		b.Run(name+"/pool", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				mulRowsPool(dst, a, w)
			}
		})
	}
}
