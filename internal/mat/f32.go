package mat

import (
	"fmt"
	"math"
)

// Float32 matrices: the precision the network trains and serves in, as
// the paper's PyTorch implementation does. The f32 kernels (mul32.go,
// act32.go, dropout32.go, recon32.go, adam32.go) run 8 lanes to a
// register under the asm family, and their scratch comes from
// WorkspaceF32 (workspace.go). Dense stays the float64 matrix of the
// baselines' small solvers and the float64 products.

// DenseF32 is a dense row-major float32 matrix.
type DenseF32 struct {
	Rows, Cols int
	Data       []float32
}

// NewDenseF32 returns a zeroed rows x cols float32 matrix.
func NewDenseF32(rows, cols int) *DenseF32 {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &DenseF32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// QuantizeDense converts a float64 matrix to float32, rounding each
// element to the nearest float32.
func QuantizeDense(m *Dense) *DenseF32 {
	q := &DenseF32{Rows: m.Rows, Cols: m.Cols, Data: make([]float32, len(m.Data))}
	for i, v := range m.Data {
		q.Data[i] = float32(v)
	}
	return q
}

// Row returns row i as a slice sharing the matrix storage.
func (m *DenseF32) Row(i int) []float32 {
	if uint(i) >= uint(m.Rows) {
		panic("mat: row index out of range")
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Zero sets every element to 0.
func (m *DenseF32) Zero() { clear(m.Data) }

// At returns the element at row i, column j.
func (m *DenseF32) At(i, j int) float32 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *DenseF32) Set(i, j int, v float32) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *DenseF32) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Fill sets every element of m to v.
func (m *DenseF32) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equalish reports whether m and n have the same shape and all elements
// within tol of each other.
func (m *DenseF32) Equalish(n *DenseF32, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(float64(v)-float64(n.Data[i])) > tol {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of m.
func (m *DenseF32) Clone() *DenseF32 {
	return &DenseF32{Rows: m.Rows, Cols: m.Cols, Data: append([]float32(nil), m.Data...)}
}

// AddInPlaceF32 accumulates b into a.
func AddInPlaceF32(a, b *DenseF32) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: AddInPlaceF32 shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// AddRowVecToF32 computes dst = a + broadcast(v). dst may alias a, which
// is the in-place bias addition of the linear layer.
func AddRowVecToF32(dst, a *DenseF32, v []float32) {
	if len(v) != a.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic(fmt.Sprintf("mat: AddRowVecToF32 len %d onto %dx%d into %dx%d", len(v), a.Rows, a.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := dst.Row(i)[:len(ar)]
		for j, b := range v {
			or[j] = ar[j] + b
		}
	}
}

// ColSumsAccF32 accumulates the per-column sums of a into dst, row by
// row: the bias-gradient kernel db += colsums(grad).
func ColSumsAccF32(dst []float32, a *DenseF32) {
	if len(dst) != a.Cols {
		panic(fmt.Sprintf("mat: ColSumsAccF32 dst len %d != cols %d", len(dst), a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i)[:len(dst)] {
			dst[j] += v
		}
	}
}

// SliceColsToF32 copies columns [from, to) of a into dst.
func SliceColsToF32(dst, a *DenseF32, from, to int) {
	if from < 0 || to > a.Cols || from > to || dst.Rows != a.Rows || dst.Cols != to-from {
		panic(fmt.Sprintf("mat: SliceColsToF32 [%d,%d) of %dx%d into %dx%d", from, to, a.Rows, a.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i), a.Row(i)[from:to])
	}
}
