// Package nnls implements non-negative least squares via the
// Lawson-Hanson active-set algorithm. It is the solver Ernest (NSDI'16)
// uses to fit its parametric scale-out model, and therefore the substrate
// for both baselines in the Bellamy evaluation.
package nnls

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// ErrNoConvergence is returned when the active-set loop exceeds its
// iteration budget (which for well-posed small problems never happens).
var ErrNoConvergence = errors.New("nnls: did not converge")

// Solve returns x >= 0 minimizing ||A*x - b||₂ using Lawson-Hanson.
func Solve(a *mat.Dense, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("nnls: A has %d rows but b has %d entries", a.Rows, len(b))
	}
	if a.Rows == 0 || a.Cols == 0 {
		return make([]float64, a.Cols), nil
	}
	n := a.Cols
	x := make([]float64, n)
	passive := make([]bool, n)

	// w = Aᵀ(b - A x); with x = 0 this is Aᵀ b.
	w := residualGradient(a, b, x)

	tol := 10 * 1e-12 * float64(n) * matInfNorm(a)
	maxIter := 3 * n
	if maxIter < 30 {
		maxIter = 30
	}

	for iter := 0; iter < maxIter; iter++ {
		// Select the most violated constraint among the active set.
		j, best := -1, tol
		for i := 0; i < n; i++ {
			if !passive[i] && w[i] > best {
				best = w[i]
				j = i
			}
		}
		if j < 0 {
			return x, nil // KKT conditions satisfied
		}
		passive[j] = true

		for inner := 0; inner < maxIter*10; inner++ {
			s, err := lsqPassive(a, b, passive)
			if err != nil {
				return nil, err
			}
			minS := math.Inf(1)
			for i := 0; i < n; i++ {
				if passive[i] && s[i] < minS {
					minS = s[i]
				}
			}
			if minS > 0 {
				copy(x, s)
				break
			}
			// Step as far as feasibility allows, dropping a variable.
			alpha := math.Inf(1)
			for i := 0; i < n; i++ {
				if passive[i] && s[i] <= 0 {
					if r := x[i] / (x[i] - s[i]); r < alpha {
						alpha = r
					}
				}
			}
			if math.IsInf(alpha, 1) {
				return nil, ErrNoConvergence
			}
			for i := 0; i < n; i++ {
				x[i] += alpha * (s[i] - x[i])
				if passive[i] && x[i] <= 1e-14 {
					x[i] = 0
					passive[i] = false
				}
			}
		}
		w = residualGradient(a, b, x)
	}
	// Out of iterations; the current x is still feasible. Report it with
	// a convergence error so callers can decide.
	return x, ErrNoConvergence
}

// residualGradient computes Aᵀ(b - A x).
func residualGradient(a *mat.Dense, b, x []float64) []float64 {
	r := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		r[i] = b[i] - mat.Dot(a.Row(i), x)
	}
	w := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j := range w {
			w[j] += row[j] * r[i]
		}
	}
	return w
}

// lsqPassive solves the unconstrained least squares restricted to the
// passive columns, leaving active entries at zero.
func lsqPassive(a *mat.Dense, b []float64, passive []bool) ([]float64, error) {
	var cols []int
	for j, p := range passive {
		if p {
			cols = append(cols, j)
		}
	}
	k := len(cols)
	out := make([]float64, a.Cols)
	if k == 0 {
		return out, nil
	}
	// Normal equations with a tiny Tikhonov ridge for rank-deficient
	// passive sets (repeated scale-outs can make columns collinear).
	ata := mat.NewDense(k, k)
	atb := make([]float64, k)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for p := 0; p < k; p++ {
			vp := row[cols[p]]
			if vp == 0 {
				continue
			}
			atb[p] += vp * b[i]
			rp := ata.Row(p)
			for q := 0; q < k; q++ {
				rp[q] += vp * row[cols[q]]
			}
		}
	}
	const ridge = 1e-12
	for p := 0; p < k; p++ {
		ata.Data[p*k+p] += ridge * (1 + ata.Data[p*k+p])
	}
	sol, err := solveSymmetric(ata, atb)
	if err != nil {
		return nil, err
	}
	for p, j := range cols {
		out[j] = sol[p]
	}
	return out, nil
}

// solveSymmetric solves M x = v by Gaussian elimination with partial
// pivoting. M is overwritten.
func solveSymmetric(m *mat.Dense, v []float64) ([]float64, error) {
	n := m.Rows
	if m.Cols != n || len(v) != n {
		return nil, fmt.Errorf("nnls: solveSymmetric shape mismatch")
	}
	x := make([]float64, n)
	copy(x, v)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot, pv := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if av := math.Abs(m.At(r, col)); av > pv {
				pivot, pv = r, av
			}
		}
		if pv < 1e-300 {
			return nil, fmt.Errorf("nnls: singular system")
		}
		if pivot != col {
			swapRows(m, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		d := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / d
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= m.At(r, c) * x[c]
		}
		x[r] = s / m.At(r, r)
	}
	return x, nil
}

func swapRows(m *mat.Dense, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// matInfNorm returns the max-abs element of a.
func matInfNorm(a *mat.Dense) float64 {
	var mx float64
	for _, v := range a.Data {
		if av := math.Abs(v); av > mx {
			mx = av
		}
	}
	return mx
}
