package mat

import (
	"fmt"
	"math"
)

// The element-wise kernels write into caller-provided storage and
// allocate nothing. The destination forms (ScaleTo, AddRowVecTo) fully
// overwrite dst and tolerate dst aliasing their input, which is what
// makes in-place updates (ScaleTo(a, s, a)) legal.

// ScaleTo computes dst = s*a. dst may alias a for an in-place rescale.
func ScaleTo(dst *Dense, s float64, a *Dense) {
	sameShape("ScaleTo(dst)", dst, a)
	for i, v := range a.Data {
		dst.Data[i] = s * v
	}
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Dense) {
	sameShape("AddInPlace", a, b)
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// AddRowVecTo computes dst = a + broadcast(v). dst may alias a, which is
// the in-place bias addition of the linear layer.
func AddRowVecTo(dst, a *Dense, v []float64) {
	if len(v) != a.Cols {
		panic(fmt.Sprintf("mat: AddRowVec len %d != cols %d", len(v), a.Cols))
	}
	sameShape("AddRowVecTo(dst)", dst, a)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := dst.Row(i)
		for j := range ar {
			or[j] = ar[j] + v[j]
		}
	}
}

// ColSumsAcc accumulates the per-column sums of a into dst. It is the
// bias-gradient kernel: db += colsums(grad) writes straight into the
// parameter gradient.
func ColSumsAcc(dst []float64, a *Dense) {
	if len(dst) != a.Cols {
		panic(fmt.Sprintf("mat: ColSumsAcc dst len %d != cols %d", len(dst), a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
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

// Norm2 returns the euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SliceCols returns a copy of columns [from, to) of a.
func SliceCols(a *Dense, from, to int) *Dense {
	out := NewDense(a.Rows, to-from)
	SliceColsTo(out, a, from, to)
	return out
}

// SliceColsTo copies columns [from, to) of a into dst.
func SliceColsTo(dst, a *Dense, from, to int) {
	if from < 0 || to > a.Cols || from > to {
		panic(fmt.Sprintf("mat: SliceCols [%d,%d) out of bounds cols=%d", from, to, a.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != to-from {
		panic(fmt.Sprintf("mat: SliceColsTo dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, to-from))
	}
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i), a.Row(i)[from:to])
	}
}

func sameShape(op string, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
