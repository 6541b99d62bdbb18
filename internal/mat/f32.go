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
	c := len(v)
	for off := 0; off < a.Rows*c; off += c {
		ar, or := a.Data[off:off+c], dst.Data[off:off+c]
		for j, b := range v {
			or[j] = ar[j] + b
		}
	}
}

// ColSumsAccF32 accumulates the per-column sums of a into dst, row by
// row: the bias-gradient kernel db += colsums(grad). Four rows at a
// time go into a column's sum before it is stored back, added in row
// order as one row at a time would add them.
func ColSumsAccF32(dst []float32, a *DenseF32) {
	if len(dst) != a.Cols {
		panic(fmt.Sprintf("mat: ColSumsAccF32 dst len %d != cols %d", len(dst), a.Cols))
	}
	c, n := len(dst), a.Rows*len(dst)
	off := 0
	for ; off+4*c <= n; off += 4 * c {
		r0, r1 := a.Data[off:off+c], a.Data[off+c:off+2*c]
		r2, r3 := a.Data[off+2*c:off+3*c], a.Data[off+3*c:off+4*c]
		for j, v := range dst {
			dst[j] = v + r0[j] + r1[j] + r2[j] + r3[j]
		}
	}
	for ; off < n; off += c {
		for j, v := range a.Data[off : off+c] {
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

// GatherRowsF32 sets row i of dst to row rows[i] of src; dst must be
// len(rows)×src.Cols. Under the asm family rows whose width is a
// multiple of 8 move 8 floats a load.
func GatherRowsF32(dst, src *DenseF32, rows []int32) {
	c := checkRows("GatherRowsF32", dst, src, src, rows)
	if useAsm && c%8 == 0 && c > 0 && len(rows) > 0 {
		gatherRows32(&dst.Data[0], &src.Data[0], &rows[0], len(rows), c)
		return
	}
	for i, r := range rows {
		copy(dst.Data[i*c:i*c+c], src.Data[int(r)*c:int(r)*c+c])
	}
}

// ScatterAddRowsF32 adds row i of src to row rows[i] of dst, in row
// order — GatherRowsF32's backward pass; src must be len(rows)×dst.Cols.
// Each element is the same float32 sum in either family.
func ScatterAddRowsF32(dst, src *DenseF32, rows []int32) {
	c := checkRows("ScatterAddRowsF32", src, dst, dst, rows)
	if useAsm && c%8 == 0 && c > 0 && len(rows) > 0 {
		scatterAddRows32(&dst.Data[0], &src.Data[0], &rows[0], len(rows), c)
		return
	}
	for i, r := range rows {
		d, s := dst.Data[int(r)*c:int(r)*c+c], src.Data[i*c:i*c+c]
		for j, v := range s {
			d[j] += v
		}
	}
}

// checkRows panics unless dense has a row per entry of rows, both
// matrices have one width, and every entry is a row of indexed. It
// returns the width.
func checkRows(op string, dense, other, indexed *DenseF32, rows []int32) int {
	if dense.Rows != len(rows) || dense.Cols != other.Cols {
		panic(fmt.Sprintf("mat: %s of %d rows between %dx%d and %dx%d", op, len(rows), dense.Rows, dense.Cols, other.Rows, other.Cols))
	}
	for _, r := range rows {
		if uint32(r) >= uint32(indexed.Rows) {
			panic(fmt.Sprintf("mat: %s row %d of %d", op, r, indexed.Rows))
		}
	}
	return dense.Cols
}
