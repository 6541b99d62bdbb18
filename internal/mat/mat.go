// Package mat provides dense matrix and vector algebra for the neural
// network and NNLS substrates. Matrices are stored in row-major order.
// Every product runs on the calling goroutine.
//
// Kernels have destination forms: XTo(dst, ...) overwrites all of dst
// (element-wise kernels may alias an input), XAcc(dst, ...) adds into
// it. The few allocating forms are wrappers over them. Element-wise
// kernels keep the order of the plain loop and are pinned bit for bit;
// the float32 products reorder their sums and are held to epsilon
// tolerance against the reference loops of mul_ref.go, which are
// themselves pinned bit for bit.
//
// The float32 kernels come in two families, chosen once at startup with
// nothing to configure (KernelFamily): "asm", the AVX2/FMA3 assembly of
// kernel_amd64.s when the CPU and OS support it, and "plain", Go loops,
// everywhere else. Building with -tags noasm compiles the assembly out,
// which is how the plain family is tested on an AVX2 machine. The
// families sum in different orders and compute the activations
// differently, so one seed trains different bits on each; within a
// family the bits never depend on GOMAXPROCS.
//
// A new kernel gets a destination form and a property test against a
// reference loop (bit identity when its summation order is the
// reference's, epsilon tolerance when it is not). Hot code draws its
// intermediates from a WorkspaceF32 (GetRaw only when it overwrites
// every element), never keeps a workspace buffer past Reset or past the
// call that borrowed the arena, and gets a testing.AllocsPerRun pin.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i. The panic message is a bare
// constant so the accessor stays within the inlining budget — it is the
// innermost call of every kernel, and inlining it is worth ~8% of a
// training step.
func (m *Dense) Row(i int) []float64 {
	if uint(i) >= uint(m.Rows) {
		panic("mat: row index out of bounds")
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Zero resets every element of m to 0.
func (m *Dense) Zero() { clear(m.Data) }

// Equalish reports whether m and n have the same shape and all elements
// within tol of each other.
func (m *Dense) Equalish(n *Dense, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	s := fmt.Sprintf("Dense(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot len %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
