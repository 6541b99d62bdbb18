package mat

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

// fromRows builds a matrix from equally sized rows.
func fromRows(rows [][]float64) *Dense {
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// transpose returns mᵀ as a new matrix, the operand the transposed
// products' tests compare against.
func transpose(m *Dense) *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// mul returns a*b through MulTo.
func mul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	MulTo(out, a, b)
	return out
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := transpose(m)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape = %dx%d, want 3x2", tr.Rows, tr.Cols)
	}
	want := fromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !tr.Equalish(want, 0) {
		t.Fatalf("transpose = %v, want %v", tr, want)
	}
}

func TestMulSmall(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	got := mul(a, b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equalish(want, 1e-12) {
		t.Fatalf("MulTo = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 5, 5)
	id := NewDense(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if got := mul(a, id); !got.Equalish(a, 1e-12) {
		t.Fatalf("A*I != A")
	}
	if got := mul(id, a); !got.Equalish(a, 1e-12) {
		t.Fatalf("I*A != A")
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched dims")
		}
	}()
	MulTo(NewDense(2, 3), NewDense(2, 3), NewDense(2, 3))
}

func TestMulATB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 7, 4)
	b := randomDense(rng, 7, 5)
	got := NewDense(4, 5)
	MulATBTo(got, a, b)
	want := mul(transpose(a), b)
	if !got.Equalish(want, 1e-10) {
		t.Fatal("MulATBTo disagrees with explicit transpose product")
	}
}

func TestMulABT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(rng, 6, 4)
	b := randomDense(rng, 9, 4)
	got := NewDense(6, 9)
	MulABTTo(got, a, b)
	want := mul(a, transpose(b))
	if !got.Equalish(want, 1e-10) {
		t.Fatal("MulABTTo disagrees with explicit transpose product")
	}
}

func TestAddRowVec(t *testing.T) {
	a := &DenseF32{Rows: 2, Cols: 2, Data: []float32{1, 2, 3, 4}}
	got := NewDenseF32(2, 2)
	AddRowVecToF32(got, a, []float32{10, 20})
	if want := []float32{11, 22, 13, 24}; !slices.Equal(got.Data, want) {
		t.Fatalf("AddRowVecToF32 = %v, want %v", got.Data, want)
	}
}

func TestColSums(t *testing.T) {
	a := &DenseF32{Rows: 3, Cols: 2, Data: []float32{1, 2, 3, 4, 5, 6}}
	got := make([]float32, 2)
	ColSumsAccF32(got, a)
	if got[0] != 9 || got[1] != 12 {
		t.Fatalf("ColSumsAccF32 = %v, want [9 12]", got)
	}
}

func TestSliceCols(t *testing.T) {
	a := &DenseF32{Rows: 2, Cols: 3, Data: []float32{1, 2, 3, 4, 5, 6}}
	got := NewDenseF32(2, 2)
	SliceColsToF32(got, a, 1, 3)
	if want := []float32{2, 3, 5, 6}; !slices.Equal(got.Data, want) {
		t.Fatalf("SliceColsToF32 = %v, want %v", got.Data, want)
	}
}

func TestDotNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

// Property: matrix multiplication distributes over addition,
// A*(B+C) == A*B + A*C.
func TestQuickMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		a := randomDense(rng, n, m)
		b := randomDense(rng, m, k)
		c := randomDense(rng, m, k)
		bc := b.Clone()
		for i, v := range c.Data {
			bc.Data[i] += v
		}
		left := mul(a, bc)
		right := mul(a, b)
		for i, v := range mul(a, c).Data {
			right.Data[i] += v
		}
		return left.Equalish(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		k := 1 + rng.Intn(5)
		a := randomDense(rng, n, m)
		b := randomDense(rng, m, k)
		return transpose(mul(a, b)).Equalish(mul(transpose(b), transpose(a)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		return transpose(transpose(a)).Equalish(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMulSerial32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomDense(rng, 32, 32)
	y := randomDense(rng, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mul(x, y)
	}
}
