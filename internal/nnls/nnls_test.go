package nnls

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// fromRows builds a matrix from equally sized rows.
func fromRows(rows [][]float64) *mat.Dense {
	m := mat.NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// residual returns ||A x - b||₂.
func residual(a *mat.Dense, x, b []float64) float64 {
	var sq float64
	for i := 0; i < a.Rows; i++ {
		d := mat.Dot(a.Row(i), x) - b[i]
		sq += d * d
	}
	return math.Sqrt(sq)
}

func TestSolveExactNonNegative(t *testing.T) {
	// A well-conditioned system whose unconstrained solution is already
	// nonnegative must be recovered exactly.
	a := fromRows([][]float64{
		{1, 0},
		{0, 1},
		{1, 1},
	})
	want := []float64{2, 3}
	b := []float64{2, 3, 5}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveClampsNegative(t *testing.T) {
	// Unconstrained solution would be negative in the second coordinate;
	// NNLS must clamp it to zero.
	a := fromRows([][]float64{
		{1, 1},
		{1, 1.0001},
	})
	b := []float64{1, 0}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if v < 0 {
			t.Fatalf("x[%d] = %v < 0", i, v)
		}
	}
}

func TestSolveZeroRHS(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	x, err := Solve(a, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %v, want 0", i, v)
		}
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	a := mat.NewDense(3, 2)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected error for mismatched dims")
	}
}

func TestSolveEmpty(t *testing.T) {
	x, err := Solve(mat.NewDense(0, 0), nil)
	if err != nil || len(x) != 0 {
		t.Fatalf("empty solve = (%v, %v)", x, err)
	}
}

func TestSolveErnestShape(t *testing.T) {
	// Fit the Ernest feature basis [1, 1/x, log x, x] against data
	// generated from known nonnegative weights; recovery should be close.
	theta := []float64{30, 200, 8, 1.5}
	scaleOuts := []float64{2, 4, 6, 8, 10, 12}
	a := mat.NewDense(len(scaleOuts), 4)
	b := make([]float64, len(scaleOuts))
	for i, x := range scaleOuts {
		a.Set(i, 0, 1)
		a.Set(i, 1, 1/x)
		a.Set(i, 2, math.Log(x))
		a.Set(i, 3, x)
		for j := 0; j < 4; j++ {
			b[i] += theta[j] * a.At(i, j)
		}
	}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-6 {
		t.Fatalf("residual = %v, want ~0 (x=%v)", r, x)
	}
}

func TestSolveOverdetermined(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := mat.NewDense(50, 3)
	for i := range a.Data {
		a.Data[i] = math.Abs(rng.NormFloat64())
	}
	trueX := []float64{1.0, 0.5, 2.0}
	b := make([]float64, 50)
	for i := 0; i < 50; i++ {
		b[i] = mat.Dot(a.Row(i), trueX) + 0.01*rng.NormFloat64()
	}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trueX {
		if math.Abs(x[i]-trueX[i]) > 0.1 {
			t.Fatalf("x = %v, want ~%v", x, trueX)
		}
	}
}

// Property: the solution is always element-wise nonnegative.
func TestQuickNonNegativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(10)
		cols := 1 + rng.Intn(5)
		a := mat.NewDense(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return true // convergence failures are acceptable; feasibility isn't
		}
		for _, v := range x {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the NNLS residual is never better than the unconstrained
// optimum but never worse than the zero solution.
func TestQuickResidualBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 3 + rng.Intn(8)
		cols := 1 + rng.Intn(3)
		a := mat.NewDense(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return true
		}
		zero := make([]float64, cols)
		return residual(a, x, b) <= residual(a, zero, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: KKT stationarity — for the returned solution, gradient
// components of the passive set vanish and of the active set are <= 0.
func TestQuickKKT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 4 + rng.Intn(8)
		cols := 1 + rng.Intn(4)
		a := mat.NewDense(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return true
		}
		w := residualGradient(a, b, x)
		for j, xj := range x {
			if xj > 1e-9 {
				if math.Abs(w[j]) > 1e-5 {
					return false
				}
			} else if w[j] > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolveErnest6Points(b *testing.B) {
	scaleOuts := []float64{2, 4, 6, 8, 10, 12}
	a := mat.NewDense(len(scaleOuts), 4)
	rhs := make([]float64, len(scaleOuts))
	for i, x := range scaleOuts {
		a.Set(i, 0, 1)
		a.Set(i, 1, 1/x)
		a.Set(i, 2, math.Log(x))
		a.Set(i, 3, x)
		rhs[i] = 30 + 200/x + 8*math.Log(x) + 1.5*x
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
