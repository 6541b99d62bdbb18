package mat

import (
	"math/rand"
	"testing"
)

// The element-wise destination kernels never reorder arithmetic, so the
// property tests here demand bit-identical results (==, not
// within-epsilon) from the destination/in-place variants. The float32
// multiply kernels, which do reorder summation, are covered to epsilon
// tolerance against the mul_ref.go oracle in mul32_equiv_test.go.

// garbageDense returns a matrix pre-filled with junk, to prove the To
// kernels fully overwrite their destination.
func garbageDense(rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = 1e30 + float64(i)
	}
	return m
}

func bitIdentical(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want bit-identical %v", name, i, v, want.Data[i])
		}
	}
}

func TestElementwiseToKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, _ := randomDense32(rng, 7, 9)
	v := make([]float32, 9)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	biased := NewDenseF32(7, 9)
	for i, x := range a.Data {
		biased.Data[i] = x + v[i%9]
	}
	dst := NewDenseF32(7, 9)
	dst.Fill(1e30)
	AddRowVecToF32(dst, a, v)
	bitIdentical32(t, "AddRowVecToF32", dst, biased)
	// Aliased: dst == a must produce the same values.
	aliased := a.Clone()
	AddRowVecToF32(aliased, aliased, v)
	bitIdentical32(t, "AddRowVecToF32(aliased)", aliased, biased)
}

func bitIdentical32(t *testing.T, name string, got, want *DenseF32) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want bit-identical %v", name, i, v, want.Data[i])
		}
	}
}

func TestSliceColsToAndColSumsAcc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, _ := randomDense32(rng, 6, 8)
	dst := NewDenseF32(6, 3)
	dst.Fill(1e30)
	SliceColsToF32(dst, a, 2, 5)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			if dst.At(i, j) != a.At(i, j+2) {
				t.Fatalf("SliceColsToF32[%d][%d] = %v, want %v", i, j, dst.At(i, j), a.At(i, j+2))
			}
		}
	}

	prior := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	acc := append([]float32(nil), prior...)
	ColSumsAccF32(acc, a)
	for j := range acc {
		want := prior[j]
		for i := 0; i < a.Rows; i++ {
			want += a.At(i, j)
		}
		if acc[j] != want {
			t.Fatalf("ColSumsAccF32[%d] = %v, want the row-order sum %v", j, acc[j], want)
		}
	}
}

func TestWorkspaceReusesBuffersByShape(t *testing.T) {
	w := NewWorkspaceF32()
	m1 := w.Get(4, 6)
	m1.Fill(7)
	w.Reset()
	m2 := w.Get(4, 6)
	if &m1.Data[0] != &m2.Data[0] {
		t.Fatal("workspace did not recycle the same-shape buffer")
	}
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
	// Distinct shapes get distinct buffers; two concurrent Gets of the
	// same shape within one round must not alias.
	a := w.Get(4, 6)
	b := w.Get(4, 6)
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("two live Gets alias the same buffer")
	}
}

func TestNilWorkspaceAllocates(t *testing.T) {
	var w *WorkspaceF32
	m := w.Get(2, 3)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("nil workspace Get shape %dx%d", m.Rows, m.Cols)
	}
	w.Reset() // must not panic
	if w.Bytes() != 0 {
		t.Fatal("nil workspace reports storage")
	}
}

func TestResized(t *testing.T) {
	m := NewDenseF32(4, 8)
	ptr := &m.Data[0]
	r := Resized32(m, 2, 8)
	if r != m || &r.Data[0] != ptr || r.Rows != 2 || r.Cols != 8 {
		t.Fatal("Resized32 did not reuse sufficient capacity")
	}
	grown := Resized32(r, 16, 16)
	if grown == m {
		t.Fatal("Resized32 reused insufficient capacity")
	}
	if got := Resized32(nil, 3, 3); got.Rows != 3 || got.Cols != 3 {
		t.Fatal("Resized32(nil) did not allocate")
	}
}

// TestMulToZeroAllocSerial pins the steady-state allocation count of
// MulTo at zero.
func TestMulToZeroAllocSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomDense(rng, 16, 24)
	b := randomDense(rng, 24, 12)
	dst := NewDense(16, 12)
	if allocs := testing.AllocsPerRun(100, func() { MulTo(dst, a, b) }); allocs != 0 {
		t.Fatalf("MulTo allocs/op = %v, want 0", allocs)
	}
}

// TestMulABTToZeroAlloc pins the a*bᵀ product at zero allocations, at
// the input-gradient shapes of a training shard.
func TestMulABTToZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range gradShapes {
		a, b, dst := randomDense(rng, s.m, s.k), randomDense(rng, s.n, s.k), NewDense(s.m, s.n)
		if allocs := testing.AllocsPerRun(100, func() { MulABTTo(dst, a, b) }); allocs != 0 {
			t.Fatalf("MulABTTo %dx%d·(%dx%d)ᵀ allocs/op = %v, want 0", s.m, s.k, s.n, s.k, allocs)
		}
	}
}
