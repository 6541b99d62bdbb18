package mat

import (
	"fmt"
	"math"
)

// ReconHead64 is the reconstruction head of pre-training in one pass:
// the decoder's tanh output layer and its MSE loss, forward and
// backward, with neither the output nor its gradient ever stored as a
// matrix. For each row i of hid (the decoder's hidden activations, R×K)
// against the target row targets.Row(rows[i]) it computes
//
//	out = hid_i·w, y = tanh(out), d = y − target,
//	dpre = d·c·(1−y²),
//
// accumulates dw += hid_iᵀ·dpre and writes dHid_i = dpre·wᵀ. It returns
// Σ d² over every element. With c = 2·weight/(R·N), dpre is the gradient
// of weight times the mean squared error, and the returned sum over R·N
// is the error itself. Up to N = 64 it allocates nothing.
//
// Under the asm family the rows run on the 4-lane AVX2/FMA3 kernels of
// kernel_amd64.s, in pairs: the forward half of each row (output, tanh
// as vtanh64 computes it, within 2 ulp of math.Tanh, error and dpre),
// then the backward half of both; only each row's dpre passes through a
// buffer. The plain family runs tiles of rows through its multiply
// kernels, with math.Tanh in between (reconHeadTiles).
func ReconHead64(dHid, hid, w, dw, targets *Dense, rows []int32, c float64) float64 {
	k, n := w.Rows, w.Cols
	if hid.Cols != k || dHid.Cols != k || dHid.Rows != hid.Rows || len(rows) != hid.Rows ||
		dw.Rows != k || dw.Cols != n || targets.Cols != n {
		panic(fmt.Sprintf("mat: ReconHead64 shapes: hid %dx%d, dHid %dx%d, %d rows, w %dx%d, dw %dx%d, targets %d cols",
			hid.Rows, hid.Cols, dHid.Rows, dHid.Cols, len(rows), k, n, dw.Rows, dw.Cols, targets.Cols))
	}
	if n == 0 {
		clear(dHid.Data) // no outputs: no error and no gradient
		return 0
	}
	if useAsm && k > 0 {
		return reconHeadAsm(dHid, hid, w, dw, targets, rows, c)
	}
	return reconHeadTiles(dHid, hid, w, dw, targets, rows, c)
}

// reconHeadAsm is ReconHead64 on the asm kernels, rows in pairs: the
// forward half of each, then the backward half of both, which loads and
// stores each chunk of dw once.
func reconHeadAsm(dHid, hid, w, dw, targets *Dense, rows []int32, c float64) float64 {
	k, n := w.Rows, w.Cols
	np := (n + 3) &^ 3
	var stack [128]float64
	dpre := stack[:]
	if 2*np > len(stack) {
		dpre = make([]float64, 2*np)
	}
	w0, dw0 := &w.Data[0], &dw.Data[0]
	var sum float64
	i := 0
	for ; i+2 <= len(rows); i += 2 {
		sum += reconFront64(&hid.Data[i*k], k, w0, n, &targets.Row(int(rows[i]))[0], &dpre[0], c)
		sum += reconFront64(&hid.Data[(i+1)*k], k, w0, n, &targets.Row(int(rows[i+1]))[0], &dpre[np], c)
		reconBack64x2(&dHid.Data[i*k], &hid.Data[i*k], k, w0, dw0, n, &dpre[0])
	}
	if i < len(rows) {
		sum += reconFront64(&hid.Data[i*k], k, w0, n, &targets.Row(int(rows[i]))[0], &dpre[0], c)
		reconBack64(&dHid.Data[i*k], &hid.Data[i*k], k, w0, dw0, n, &dpre[0])
	}
	return sum
}

// reconTile is the most rows reconHeadTiles holds the output of at once.
const reconTile = 8

// reconHeadTiles is ReconHead64 in Go, the plain family's arm (and the
// asm family's for a w with no rows): tiles of up to reconTile rows go
// through the multiply kernels — output, then tanh, error and dpre in
// place, then dw and dHid — so no more than a tile's output exists.
func reconHeadTiles(dHid, hid, w, dw, targets *Dense, rows []int32, c float64) float64 {
	k, n := w.Rows, w.Cols
	var stack [reconTile * 64]float64
	buf := stack[:]
	if reconTile*n > len(stack) {
		buf = make([]float64, reconTile*n)
	}
	var sum float64
	for r0 := 0; r0 < len(rows); r0 += reconTile {
		t := min(reconTile, len(rows)-r0)
		hidT := Dense{Rows: t, Cols: k, Data: hid.Data[r0*k : (r0+t)*k]}
		dHidT := Dense{Rows: t, Cols: k, Data: dHid.Data[r0*k : (r0+t)*k]}
		out := Dense{Rows: t, Cols: n, Data: buf[:t*n]}
		clear(out.Data)
		mulRows(&out, &hidT, w, 0, t)
		for i, r := range rows[r0 : r0+t] {
			tg, o := targets.Row(int(r)), out.Row(i)
			for j, v := range o {
				y := math.Tanh(v)
				d := y - tg[j]
				sum += d * d
				o[j] = d * c * (1 - y*y)
			}
		}
		mulATBAcc(dw, &hidT, &out)
		mulABT(&dHidT, &out, w)
	}
	return sum
}
