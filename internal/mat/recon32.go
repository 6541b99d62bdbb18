package mat

import (
	"fmt"
	"unsafe"
)

// ReconHead32 is the reconstruction head of pre-training in one pass:
// the decoder's tanh output layer and its MSE loss, forward and
// backward, with neither the output nor its gradient ever stored as a
// matrix. For each row i of hid (the decoder's hidden activations, R×K)
// against the target row targets.Row(rows[i]) it computes
//
//	out = hid_i·w, y = tanh(out), d = y − target,
//	dpre = d·c·(1−y²),
//
// accumulates dw += hid_iᵀ·dpre and writes dHid_i = dpre·wᵀ. It returns
// Σ d² over every element, summed per row in float32 and over the rows
// in float64. With c = 2·weight/(R·N), dpre is the gradient of weight
// times the mean squared error, and the returned sum over R·N is the
// error itself. Up to N = 64 and K = 64 it allocates nothing.
//
// Under the asm family the rows run on the 8-lane AVX2/FMA3 kernels of
// kernel_amd64.s, in pairs: the forward half of both rows, interleaved
// (output, tanh as vtanh32 computes it, error and dpre), then the
// backward half of both; only each row's dpre passes through a buffer.
// An odd last row runs as the first of a pair whose second row is zero.
// The plain
// family runs tiles of rows through its multiply kernels, with the
// plain tanh in between (reconHeadTiles32).
func ReconHead32(dHid, hid, w, dw, targets *DenseF32, rows []int32, c float32) float64 {
	k, n := w.Rows, w.Cols
	if hid.Cols != k || dHid.Cols != k || dHid.Rows != hid.Rows || len(rows) != hid.Rows ||
		dw.Rows != k || dw.Cols != n || targets.Cols != n {
		panic(fmt.Sprintf("mat: ReconHead32 shapes: hid %dx%d, dHid %dx%d, %d rows, w %dx%d, dw %dx%d, targets %d cols",
			hid.Rows, hid.Cols, dHid.Rows, dHid.Cols, len(rows), k, n, dw.Rows, dw.Cols, targets.Cols))
	}
	if n == 0 {
		clear(dHid.Data) // no outputs: no error and no gradient
		return 0
	}
	if useAsm && k > 0 {
		return reconHeadAsm32(dHid, hid, w, dw, targets, rows, c)
	}
	return reconHeadTiles32(dHid, hid, w, dw, targets, rows, c)
}

// reconHeadAsm32 is ReconHead32 on the asm kernels, rows in pairs, one
// asm loop over them (reconPairs32): the forward half of both, then the
// backward half of both, which loads and stores each chunk of dw once.
func reconHeadAsm32(dHid, hid, w, dw, targets *DenseF32, rows []int32, c float32) float64 {
	k, n := w.Rows, w.Cols
	np := (n + 7) &^ 7
	// The dpre rows start on a cache line, so no 8-lane chunk of them
	// straddles two: pass 2 reloads each chunk pass 1 just stored.
	var stack [128 + 15]float32
	skip := int(-uintptr(unsafe.Pointer(&stack[0]))&63) / 4
	dpre := stack[skip : skip+128]
	if 2*np > len(dpre) {
		dpre = make([]float32, 2*np)
	}
	w0, dw0, h0 := &w.Data[0], &dw.Data[0], hid.Data
	target := func(r int32) *float32 { o := int(r) * n; return &targets.Data[o : o+n][0] }
	var sum float64
	i := len(rows) &^ 1
	if i > 0 {
		if !rowsBelow(rows[:i], targets.Rows) || len(targets.Data) < targets.Rows*n {
			panic(fmt.Sprintf("mat: ReconHead32 target row out of %d", targets.Rows))
		}
		sum = reconPairs32(&dHid.Data[0], &h0[0], k, w0, dw0, n, &targets.Data[0], &rows[0], i/2, &dpre[0], c)
	}
	if i < len(rows) {
		// The second row of the pair is zero: its hid adds nothing to
		// dw, its error is not the head's, and its dhid lands in the
		// stage.
		var hStack, dStack [128]float32
		hs, ds := hStack[:], dStack[:]
		if 2*k > len(hs) {
			hs, ds = make([]float32, 2*k), make([]float32, 2*k)
		}
		copy(hs, h0[i*k:(i+1)*k])
		clear(hs[k : 2*k])
		sa, _ := reconFront32x2(&hs[0], k, w0, n, target(rows[i]), target(rows[i]), &dpre[0], c)
		sum += float64(sa)
		clear(dpre[np : 2*np])
		reconBack32x2(&ds[0], &hs[0], k, w0, dw0, n, &dpre[0])
		copy(dHid.Data[i*k:(i+1)*k], ds[:k])
	}
	return sum
}

// reconTile is the most rows reconHeadTiles32 holds the output of at once.
const reconTile = 8

// reconHeadTiles32 is ReconHead32 in Go, the plain family's arm (and the
// asm family's for a w with no rows): tiles of up to reconTile rows go
// through the multiply kernels — output, then tanh, error and dpre in
// place, then dw and dHid — so no more than a tile's output exists.
func reconHeadTiles32(dHid, hid, w, dw, targets *DenseF32, rows []int32, c float32) float64 {
	k, n := w.Rows, w.Cols
	var stack [reconTile * 64]float32
	buf := stack[:]
	if reconTile*n > len(stack) {
		buf = make([]float32, reconTile*n)
	}
	var sum float64
	for r0 := 0; r0 < len(rows); r0 += reconTile {
		t := min(reconTile, len(rows)-r0)
		hidT := DenseF32{Rows: t, Cols: k, Data: hid.Data[r0*k : (r0+t)*k]}
		dHidT := DenseF32{Rows: t, Cols: k, Data: dHid.Data[r0*k : (r0+t)*k]}
		out := DenseF32{Rows: t, Cols: n, Data: buf[:t*n]}
		clear(out.Data)
		if k > 0 {
			mulRows32(&out, &hidT, w)
		}
		for i, r := range rows[r0 : r0+t] {
			tg, o := targets.Row(int(r)), out.Row(i)
			var rs float32
			for j, v := range o {
				y := tanhScalar32(v)
				d := y - tg[j]
				rs += d * d
				o[j] = d * c * (1 - y*y)
			}
			sum += float64(rs)
		}
		if k > 0 {
			mulATBAcc32(dw, &hidT, &out)
			mulABT32(&dHidT, &out, w)
		}
	}
	return sum
}
