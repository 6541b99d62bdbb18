package mat

import (
	"math/rand"
	"testing"
)

// The element-wise destination kernels never reorder arithmetic, so the
// property tests here demand bit-identical results (==, not
// within-epsilon) from the destination/in-place variants. The multiply
// kernels, which do reorder summation, are covered to epsilon tolerance
// against the mul_ref.go oracle in mul_equiv_test.go.

func closeish(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*(1+max(abs(a), abs(b)))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

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

func TestMulATBAccAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomDense(rng, 11, 5)
	b := randomDense(rng, 11, 3)
	prior := randomDense(rng, 5, 3)
	dst := prior.Clone()
	MulATBAcc(dst, a, b)
	want := NewDense(5, 3)
	refMulATBTo(want, a, b)
	for i := range dst.Data {
		if got, w := dst.Data[i], prior.Data[i]+want.Data[i]; !closeish(got, w) {
			t.Fatalf("MulATBAcc[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestElementwiseToKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomDense(rng, 7, 9)
	v := make([]float64, 9)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	biased := NewDense(7, 9)
	for i, x := range a.Data {
		biased.Data[i] = x + v[i%9]
	}

	cases := []struct {
		name string
		run  func(dst, src *Dense)
		want *Dense
	}{
		{"AddRowVecTo", func(d, src *Dense) { AddRowVecTo(d, src, v) }, biased},
	}
	for _, tc := range cases {
		dst := garbageDense(7, 9)
		tc.run(dst, a)
		bitIdentical(t, tc.name, dst, tc.want)
		// Aliased: dst == a must produce the same values.
		aliased := a.Clone()
		tc.run(aliased, aliased)
		bitIdentical(t, tc.name+"(aliased)", aliased, tc.want)
	}
}

func TestSliceColsToAndColSumsAcc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomDense(rng, 6, 8)
	dst := garbageDense(6, 3)
	SliceColsTo(dst, a, 2, 5)
	bitIdentical(t, "SliceColsTo", dst, SliceCols(a, 2, 5))

	prior := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	acc := append([]float64(nil), prior...)
	ColSumsAcc(acc, a)
	for j := range acc {
		want := prior[j]
		for _, x := range a.Col(j) {
			want += x
		}
		if !closeish(acc[j], want) {
			t.Fatalf("ColSumsAcc[%d] = %v, want %v", j, acc[j], want)
		}
	}
}

func TestWorkspaceReusesBuffersByShape(t *testing.T) {
	w := NewWorkspace()
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
	var w *Workspace
	m := w.Get(2, 3)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("nil workspace Get shape %dx%d", m.Rows, m.Cols)
	}
	w.Reset() // must not panic
	if w.NumBuffers() != 0 {
		t.Fatal("nil workspace reports buffers")
	}
}

func TestResized(t *testing.T) {
	m := NewDense(4, 8)
	ptr := &m.Data[0]
	r := Resized(m, 2, 8)
	if r != m || &r.Data[0] != ptr || r.Rows != 2 || r.Cols != 8 {
		t.Fatal("Resized did not reuse sufficient capacity")
	}
	grown := Resized(r, 16, 16)
	if grown == m {
		t.Fatal("Resized reused insufficient capacity")
	}
	if got := Resized(nil, 3, 3); got.Rows != 3 || got.Cols != 3 {
		t.Fatal("Resized(nil) did not allocate")
	}
}

// TestMulToZeroAllocSerial pins the steady-state allocation count of the
// serial direct kernel at zero.
func TestMulToZeroAllocSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomDense(rng, 16, 24)
	b := randomDense(rng, 24, 12)
	dst := NewDense(16, 12)
	if allocs := testing.AllocsPerRun(100, func() { MulTo(dst, a, b) }); allocs != 0 {
		t.Fatalf("MulTo allocs/op = %v, want 0", allocs)
	}
}
