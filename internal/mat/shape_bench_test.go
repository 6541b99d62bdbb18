package mat

import (
	"fmt"
	"testing"
)

// BenchmarkServeShape sweeps the float32 products of one serving-batch
// forward pass (f/g/z layer shapes for a 250-query batch): skinny
// outputs where the strided sgemmRows4x{8,4} kernels and the dot-based
// column-tail path do the work.
func BenchmarkServeShape(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{
		{1750, 40, 8}, // g layer 1: (B*7) property rows x encoder
		{250, 3, 16},  // f layer 1: scale-out features x hidden
		{250, 16, 8},  // f layer 2
		{1750, 8, 4},  // g layer 2: hidden x encoding dim
		{250, 28, 8},  // z layer 1: combined features x hidden
		{250, 8, 1},   // z layer 2: hidden x runtime
	} {
		a := NewDenseF32(s.m, s.k)
		bb := NewDenseF32(s.k, s.n)
		for i := range a.Data {
			a.Data[i] = float32(i%7) * 0.1
		}
		for i := range bb.Data {
			bb.Data[i] = float32(i%5) * 0.2
		}
		dst := NewDenseF32(s.m, s.n)
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulToF32(dst, a, bb)
			}
		})
	}
}
