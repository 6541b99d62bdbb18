package mat

import (
	"fmt"
	"math"
)

// The auto-encoder's per-occurrence layers in pre-training, fused. A
// training shard runs the encoder's output layer and the decoder's
// hidden layer once per property slot of its samples (224 rows for 32
// samples), each behind an alpha-dropout: as layered calls that is ~18
// passes over 4- and 8-wide matrices. Under the asm family three calls
// do the work instead, each one pass over the rows on the kernels of
// kernel_amd64.s:
//
//   - EncodeRows32, the encoder forward: gathered hidden row → dropout
//     → 8→4 SELU layer → code;
//   - DecodeRows32, the decoder forward and backward: 4→8 SELU layer →
//     dropout → ReconHead32 → back to the code gradient;
//   - EncodeRowsBack32, the encoder backward: the code gradient back
//     through the 8→4 layer and the dropout, scatter-added onto the
//     distinct rows.
//
// Each computes what the layered calls it replaces compute, to the bit:
// every sum runs over the inner dimension in the layered kernels' order,
// one FMA a term; the rows past the last full RowGroup take their
// products' scalar route, as mulRows32 gives them; and each unit reads
// the same 16-bit field of the same dropout word. The plain family keeps
// the layered calls (AERowsFused).

// AEHidden and AECode are the widths the fused passes cover: the
// auto-encoder's hidden layer and its code, as DefaultConfig has them.
const (
	AEHidden = 8
	AECode   = 4
)

// AERowsFused reports whether the fused passes run for an auto-encoder
// of hidden width hidden and code width code: under the asm family, at
// AEHidden and AECode.
func AERowsFused(hidden, code int) bool {
	return useAsm && hidden == AEHidden && code == AECode
}

// AEPass is what a fused pass reads besides matrices: the SELU constants
// of its layers and one alpha-dropout pass, its words and the constants
// AlphaDropout32 takes.
type AEPass struct {
	Lambda, LambdaAlpha float32
	Words               []uint64
	KeepBelow           uint32
	A, AP, Dropped      float32
}

// aeCoef is the kernels' copy of an AEPass's constants, each over 8
// lanes, with +0 and −0, and the byte stride of aeEncodeBack32's extra
// rows; the offsets are kernel_amd64.s's.
type aeCoef struct {
	keep                        [8]uint32
	a, ap, dropped              [8]float32
	lambda, lambdaAlpha, pz, nz [8]float32
	extraStride                 int
}

func (p *AEPass) coef() (c aeCoef) {
	for i := range 8 {
		c.keep[i], c.a[i], c.ap[i], c.dropped[i] = p.KeepBelow, p.A, p.AP, p.Dropped
		c.lambda[i], c.lambdaAlpha[i] = p.Lambda, p.LambdaAlpha
		c.nz[i] = float32(math.Copysign(0, -1))
	}
	return c
}

// rowsBelow reports whether every entry of rows is a row of a matrix of
// n rows.
func rowsBelow(rows []int32, n int) bool {
	// Four running maxima: one would chain every compare on the last.
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		r := rows[i : i+4 : i+4]
		m0, m1 = max(m0, uint32(r[0])), max(m1, uint32(r[1]))
		m2, m3 = max(m2, uint32(r[2])), max(m3, uint32(r[3]))
	}
	for _, r := range rows[i:] {
		m0 = max(m0, uint32(r))
	}
	return len(rows) == 0 || uint64(max(m0, m1, m2, m3)) < uint64(n)
}

// tailRows is rows [lo, m.Rows) of m, a view.
func tailRows(m *DenseF32, lo int) DenseF32 {
	return DenseF32{Rows: m.Rows - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols:]}
}

// EncodeRows32 is the encoder's per-occurrence forward pass, from its
// hidden layer's output on the distinct rows, hu (U×8), to the codes of
// the R = len(rows) occurrences: x2_i is row rows[i] of hu after p's
// dropout, whose slopes go to slope (R·8), and code_i = SELU(x2_i·w),
// w 8×4. It computes what GatherRowsF32, AlphaDropout32, MulToF32 and
// BiasSelu32 compute in turn. Asm family only (AERowsFused).
func EncodeRows32(codes, x2 *DenseF32, slope []float32, hu *DenseF32, rows []int32, w *DenseF32, p *AEPass) {
	r := len(rows)
	if !useAsm || hu.Cols != AEHidden || w.Rows != AEHidden || w.Cols != AECode ||
		x2.Rows != r || x2.Cols != AEHidden || codes.Rows != r || codes.Cols != AECode ||
		len(slope) != r*AEHidden || len(p.Words) < 2*r || !rowsBelow(rows, hu.Rows) {
		panic(fmt.Sprintf("mat: EncodeRows32 of %d rows of %dx%d through %dx%d into %dx%d and %dx%d, %d slopes, %d words",
			r, hu.Rows, hu.Cols, w.Rows, w.Cols, x2.Rows, x2.Cols, codes.Rows, codes.Cols, len(slope), len(p.Words)))
	}
	n := r &^ (RowGroup - 1)
	if n > 0 {
		// Each weight row twice over: one register holds two rows' codes.
		var wd [AEHidden * 8]float32
		for k := range AEHidden {
			row := w.Data[k*AECode : (k+1)*AECode]
			copy(wd[k*8:], row)
			copy(wd[k*8+AECode:], row)
		}
		c := p.coef()
		aeEncode32(&x2.Data[0], &slope[0], &codes.Data[0], &hu.Data[0], &rows[0], &p.Words[0], &wd[0], n, &c)
	}
	if n < r {
		xt, ct := tailRows(x2, n), tailRows(codes, n)
		GatherRowsF32(&xt, hu, rows[n:])
		AlphaDropout32(xt.Data, slope[n*AEHidden:], xt.Data, p.Words[n*AEHidden/4:], p.KeepBelow, p.A, p.AP, p.Dropped)
		clear(ct.Data)
		mulRowsColsPlain32(&ct, &xt, w, 0, ct.Rows, 0, AECode)
		BiasSelu32(ct.Data, nil, p.Lambda, p.LambdaAlpha)
	}
}

// DecodeRows32 is the decoder's pass in pre-training, forward and
// backward, on the codes of R = len(rows) occurrences: a1 = SELU(code·w1)
// (w1 4×8), p's dropout of a1 (its slopes to slope, R·8), and the
// reconstruction head on the result (ReconHead32 with w2, dw2, targets,
// rows and c), then back through the dropout and the hidden layer: dw1
// and dw2 gain their gradients and dcodes (R×4) is set to the gradient
// w.r.t. codes. It returns ReconHead32's sum. It computes what MulToF32,
// BiasSelu32, AlphaDropout32, ReconHead32, MulElems32, SeluGrad32,
// MulATBAccF32 and MulABTToF32 compute in turn; its intermediates come
// from ws. Asm family only (AERowsFused).
func DecodeRows32(ws *WorkspaceF32, dcodes, codes, w1, dw1 *DenseF32, slope []float32, w2, dw2, targets *DenseF32, rows []int32, p *AEPass, c float32) float64 {
	r := len(rows)
	if !useAsm || w1.Rows != AECode || w1.Cols != AEHidden || dw1.Rows != AECode || dw1.Cols != AEHidden ||
		codes.Rows != r || codes.Cols != AECode || dcodes.Rows != r || dcodes.Cols != AECode ||
		w2.Rows != AEHidden || len(slope) != r*AEHidden || len(p.Words) < 2*r {
		panic(fmt.Sprintf("mat: DecodeRows32 of %dx%d codes into %dx%d through %dx%d and %dx%d, %d slopes, %d words",
			codes.Rows, codes.Cols, dcodes.Rows, dcodes.Cols, w1.Rows, w1.Cols, w2.Rows, w2.Cols, len(slope), len(p.Words)))
	}
	if r == 0 {
		return 0
	}
	a1, hid, dhid := ws.GetRaw(r, AEHidden), ws.GetRaw(r, AEHidden), ws.GetRaw(r, AEHidden)
	c8 := p.coef()
	n := r &^ (RowGroup - 1)
	if n > 0 {
		aeDecodeFront32(&a1.Data[0], &slope[0], &hid.Data[0], &codes.Data[0], &p.Words[0], &w1.Data[0], n, &c8)
	}
	if n < r {
		at, ct := tailRows(a1, n), tailRows(codes, n)
		clear(at.Data)
		mulRowsColsPlain32(&at, &ct, w1, 0, at.Rows, 0, AEHidden)
		BiasSelu32(at.Data, nil, p.Lambda, p.LambdaAlpha)
		AlphaDropout32(hid.Data[n*AEHidden:], slope[n*AEHidden:], at.Data, p.Words[n*AEHidden/4:], p.KeepBelow, p.A, p.AP, p.Dropped)
	}
	sum := ReconHead32(dhid, hid, w2, dw2, targets, rows, c)
	// w1 transposed, 8 rows of 4: the code gradient is dpre·w1ᵀ.
	var wt [AEHidden * AECode]float32
	for j := range AECode {
		for k := range AEHidden {
			wt[k*AECode+j] = w1.Data[j*AEHidden+k]
		}
	}
	aeDecodeBack32(&dcodes.Data[0], &dhid.Data[0], &slope[0], &a1.Data[0], &codes.Data[0], &wt[0], &dw1.Data[0], r, n, &c8)
	if n < r {
		dt, pt := tailRows(dcodes, n), tailRows(dhid, n)
		clear(dt.Data)
		mulRowsColsPlain32(&dt, &pt, &DenseF32{Rows: AEHidden, Cols: AECode, Data: wt[:]}, 0, dt.Rows, 0, AECode)
	}
	return sum
}

// EncodeRowsBack32 is EncodeRows32's backward pass: from the gradient
// dcodes (R×4) of the codes, plus extra's (R×4) when extra is not nil,
// it accumulates w's gradient into dw (8×4) and adds each occurrence's
// gradient w.r.t. its gathered hidden row onto row rows[i] of du (U×8),
// in row order; codes, x2 and slope are what EncodeRows32 left. dcodes
// is overwritten. It computes what AddInPlaceF32, SeluGrad32,
// MulATBAccF32, MulABTToF32, MulElems32 and ScatterAddRowsF32 compute in
// turn. Asm family only (AERowsFused).
func EncodeRowsBack32(du, dcodes, extra, codes, x2 *DenseF32, slope []float32, w, dw *DenseF32, rows []int32, lambda, lambdaAlpha float32) {
	r := len(rows)
	if !useAsm || du.Cols != AEHidden || w.Rows != AEHidden || w.Cols != AECode || dw.Rows != AEHidden || dw.Cols != AECode ||
		dcodes.Rows != r || dcodes.Cols != AECode || codes.Rows != r || codes.Cols != AECode ||
		x2.Rows != r || x2.Cols != AEHidden || len(slope) != r*AEHidden ||
		(extra != nil && (extra.Rows != r || extra.Cols != AECode)) || !rowsBelow(rows, du.Rows) {
		panic(fmt.Sprintf("mat: EncodeRowsBack32 of %d rows onto %dx%d through %dx%d from %dx%d codes, %d slopes",
			r, du.Rows, du.Cols, w.Rows, w.Cols, dcodes.Rows, dcodes.Cols, len(slope)))
	}
	if r == 0 {
		return
	}
	c := (&AEPass{Lambda: lambda, LambdaAlpha: lambdaAlpha}).coef()
	ex := &c.nz[0] // a row of −0 that stays put: x + (−0) is x
	if extra != nil {
		ex, c.extraStride = &extra.Data[0], 4*AECode
	}
	// w transposed, 4 rows of 8: the unit gradient is dpre·wᵀ.
	var wt [AECode * AEHidden]float32
	for k := range AEHidden {
		for j := range AECode {
			wt[j*AEHidden+k] = w.Data[k*AECode+j]
		}
	}
	n := r &^ (RowGroup - 1)
	aeEncodeBack32(&du.Data[0], &dcodes.Data[0], ex, &codes.Data[0], &x2.Data[0], &slope[0], &wt[0], &dw.Data[0], &rows[0], r, n, &c)
	if n < r {
		pt := tailRows(dcodes, n)
		var stage [(RowGroup - 1) * AEHidden]float32
		gt := DenseF32{Rows: pt.Rows, Cols: AEHidden, Data: stage[:pt.Rows*AEHidden]}
		mulRowsColsPlain32(&gt, &pt, &DenseF32{Rows: AECode, Cols: AEHidden, Data: wt[:]}, 0, gt.Rows, 0, AEHidden)
		MulElems32(gt.Data, gt.Data, slope[n*AEHidden:])
		ScatterAddRowsF32(du, &gt, rows[n:])
	}
}
