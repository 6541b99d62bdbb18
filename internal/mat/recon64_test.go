package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// reconRef is ReconHead64 written out with no buffers: the decoder's
// output, its tanh, the squared error and the three gradients, one
// element at a time.
func reconRef(hid, w, dw0, targets *Dense, rows []int32, c float64) (dHid, dw *Dense, sum float64) {
	k, n := w.Rows, w.Cols
	dHid, dw = NewDense(hid.Rows, k), dw0.Clone()
	for i, r := range rows {
		t := targets.Row(int(r))
		for j := 0; j < n; j++ {
			var out float64
			for kk := 0; kk < k; kk++ {
				out += hid.At(i, kk) * w.At(kk, j)
			}
			y := math.Tanh(out)
			d := y - t[j]
			sum += d * d
			dpre := d * c * (1 - y*y)
			for kk := 0; kk < k; kk++ {
				dw.Data[kk*n+j] += hid.At(i, kk) * dpre
				dHid.Data[i*k+kk] += dpre * w.At(kk, j)
			}
		}
	}
	return dHid, dw, sum
}

// closeTo reports whether got is within tol of want, relative to the
// largest magnitude of want (1 when want is all small).
func closeTo(got, want []float64, tol float64) (int, bool) {
	scale := 1.0
	for _, v := range want {
		scale = max(scale, math.Abs(v))
	}
	for i, v := range got {
		if !(math.Abs(v-want[i]) <= tol*scale) {
			return i, false
		}
	}
	return -1, true
}

// TestReconHead64MatchesRef holds both kernel families to the reference
// over every row count from 1 to 9 and a training shard's 224, output
// widths that leave 1, 3 and 1 ragged lanes and none, and hidden widths
// 1, 3 and 8, to 1e-12 of each result's largest magnitude. It also pins
// that the ragged lanes stay inside their rows: sentinels just past dw
// and dHid, and in the padding after the target matrix, are untouched.
func TestReconHead64MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const sentinel = 12345.678
	// withGuard returns a rows×cols matrix whose backing array carries
	// four sentinels after its last element.
	withGuard := func(rows, cols int, fill func() float64) *Dense {
		data := make([]float64, rows*cols+4)
		for i := range data {
			if i < rows*cols {
				data[i] = fill()
			} else {
				data[i] = sentinel
			}
		}
		return &Dense{Rows: rows, Cols: cols, Data: data[:rows*cols]}
	}
	guardIntact := func(m *Dense) bool {
		for _, v := range m.Data[len(m.Data) : len(m.Data)+4] {
			if v != sentinel {
				return false
			}
		}
		return true
	}
	for _, asm := range testFamilies() {
		setFamily(t, asm)
		for _, n := range []int{1, 3, 13, 40} {
			for _, k := range []int{1, 3, 8} {
				for _, r := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 224} {
					name := fmt.Sprintf("family=%s/%dx%dx%d", KernelFamily(), r, k, n)
					hid := randomDense(rng, r, k)
					w := randomDense(rng, k, n)
					targets := withGuard(5, n, func() float64 { return float64(rng.Intn(3) - 1) })
					rows := make([]int32, r)
					for i := range rows {
						rows[i] = int32(rng.Intn(targets.Rows))
					}
					dw := withGuard(k, n, rng.NormFloat64)
					dHid := withGuard(r, k, func() float64 { return math.NaN() })
					c := 2 * 0.25 / float64(r*n)
					wantDHid, wantDW, wantSum := reconRef(hid, w, dw, targets, rows, c)

					sum := ReconHead64(dHid, hid, w, dw, targets, rows, c)
					if _, ok := closeTo([]float64{sum}, []float64{wantSum}, 1e-12); !ok {
						t.Fatalf("%s: Σd² = %v, want %v", name, sum, wantSum)
					}
					if i, ok := closeTo(dw.Data, wantDW.Data, 1e-12); !ok {
						t.Fatalf("%s: dw[%d] = %v, want %v", name, i, dw.Data[i], wantDW.Data[i])
					}
					if i, ok := closeTo(dHid.Data, wantDHid.Data, 1e-12); !ok {
						t.Fatalf("%s: dHid[%d] = %v, want %v", name, i, dHid.Data[i], wantDHid.Data[i])
					}
					if !guardIntact(dw) || !guardIntact(dHid) || !guardIntact(targets) {
						t.Fatalf("%s: a write ran past the end of dw, dHid or the targets", name)
					}
				}
			}
		}
	}
}

// TestReconHead64RowsIndependent: the asm family runs rows in pairs and
// an odd last row alone; a row's results must not depend on which, so
// one call over r rows and r calls of one row each leave dw, dHid and
// the error bit for bit the same.
func TestReconHead64RowsIndependent(t *testing.T) {
	if !hasAsm {
		t.Skip("only the plain family runs on this build or CPU")
	}
	rng := rand.New(rand.NewSource(22))
	setFamily(t, true)
	{
		for _, n := range []int{3, 40} {
			for _, k := range []int{3, 8} {
				const r = 7
				name := fmt.Sprintf("family=%s/%dx%dx%d", KernelFamily(), r, k, n)
				hid, w := randomDense(rng, r, k), randomDense(rng, k, n)
				targets := randomDense(rng, 3, n)
				rows := []int32{0, 2, 1, 1, 0, 2, 2}
				dwAll, dwOne := randomDense(rng, k, n), NewDense(k, n)
				copy(dwOne.Data, dwAll.Data)
				dHidAll, dHidOne := NewDense(r, k), NewDense(r, k)
				sumAll := ReconHead64(dHidAll, hid, w, dwAll, targets, rows, 0.01)
				var sumOne float64
				for i := range rows {
					row := &Dense{Rows: 1, Cols: k, Data: hid.Row(i)}
					dRow := &Dense{Rows: 1, Cols: k, Data: dHidOne.Row(i)}
					sumOne += ReconHead64(dRow, row, w, dwOne, targets, rows[i:i+1], 0.01)
				}
				if sumAll != sumOne {
					t.Fatalf("%s: Σd² %v over all rows, %v row by row", name, sumAll, sumOne)
				}
				for i, v := range dwAll.Data {
					if math.Float64bits(v) != math.Float64bits(dwOne.Data[i]) {
						t.Fatalf("%s: dw[%d] %v over all rows, %v row by row", name, i, v, dwOne.Data[i])
					}
				}
				for i, v := range dHidAll.Data {
					if math.Float64bits(v) != math.Float64bits(dHidOne.Data[i]) {
						t.Fatalf("%s: dHid[%d] %v over all rows, %v row by row", name, i, v, dHidOne.Data[i])
					}
				}
			}
		}
	}
}
