package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Float32 kernel equivalence: the f32 serving kernels are validated
// against the float64 oracle on float32-rounded inputs, so the only
// admissible error is f32 summation rounding. The bound scales with
// the reduction depth and the magnitudes involved, at float32 epsilon.

func tolClose32(got float32, want float64, k int) bool {
	d := math.Abs(float64(got) - want)
	return d <= 2e-6*float64(k+1)*(1+math.Abs(want))
}

// randomDense32 draws a float32 matrix plus its exact float64 shadow:
// the f64 copy holds the same (f32-representable) values, so oracle
// products differ from the f32 kernels only by accumulation rounding.
func randomDense32(rng *rand.Rand, rows, cols int) (*DenseF32, *Dense) {
	q := NewDenseF32(rows, cols)
	d := NewDense(rows, cols)
	for i := range q.Data {
		v := float32(rng.NormFloat64())
		q.Data[i] = v
		d.Data[i] = float64(v)
	}
	return q, d
}

func equalishTol32(t *testing.T, name string, got *DenseF32, want *Dense, k int) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if !tolClose32(v, want.Data[i], k) {
			t.Fatalf("%s: element %d = %v, want %v (reduction depth %d)", name, i, v, want.Data[i], k)
		}
	}
}

// TestF32FamiliesMatchRef sweeps the float32 kernel across both
// families over ragged shapes and issuedShapes, through MulToF32 and
// through mulRows32.
func TestF32FamiliesMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shapes := append([]struct{ m, k, n int }{{37, 23, 19}, {70, 67, 66}, {5, 300, 47}, {16, 16, 16}, {33, 29, 1}, {9, 40, 8}}, issuedShapes...)
	for _, asm := range testFamilies() {
		setFamily(t, asm)
		for _, s := range shapes {
			name := fmt.Sprintf("family=%s/%dx%dx%d", KernelFamily(), s.m, s.k, s.n)
			a32, a := randomDense32(rng, s.m, s.k)
			b32, b := randomDense32(rng, s.k, s.n)
			want := NewDense(s.m, s.n)
			refMulTo(want, a, b)

			got := NewDenseF32(s.m, s.n)
			MulToF32(got, a32, b32)
			equalishTol32(t, "MulToF32/"+name, got, want, s.k)

			got.Zero()
			mulRows32(got, a32, b32)
			equalishTol32(t, "mulRows32/"+name, got, want, s.k)
		}
	}
}

// TestF32LargePathsMatchRef keeps MulToF32 correct on products far
// larger than a forward pass issues, including a single-row edge.
func TestF32LargePathsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, asm := range testFamilies() {
		setFamily(t, asm)
		name := "family=" + KernelFamily()
		for _, s := range []struct{ m, k, n int }{
			{4117, 60, 17}, // strips plus a tail column
			{40, 300, 512}, // wide output (the saxpy driver)
			{1, 300, 300},  // one output row
		} {
			a32, a := randomDense32(rng, s.m, s.k)
			b32, b := randomDense32(rng, s.k, s.n)
			want := NewDense(s.m, s.n)
			refMulTo(want, a, b)
			got := NewDenseF32(s.m, s.n)
			MulToF32(got, a32, b32)
			equalishTol32(t, "MulToF32/"+name, got, want, s.k)
		}
	}
}
