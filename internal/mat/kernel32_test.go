package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Coverage of the float32 training kernels: the gradient products, the
// activations, the reconstruction head and the optimizer sweep, each in
// every kernel family against a float64 oracle, and the asm family
// against the plain one where the two are specified bit for bit.

// trainShapes32 are gradShapes plus shapes whose widths leave every
// ragged tail of the 8- and 4-wide strips (n%8 in 1..7, m%4 in 1..3).
var trainShapes32 = append([]struct{ m, k, n int }{
	{5, 9, 7}, {13, 17, 9}, {6, 33, 15}, {11, 3, 23}, {2, 70, 6}, {9, 40, 8},
}, gradShapes...)

// TestF32GradProductsMatchRef sweeps MulATBAccF32 (onto a dst that
// already holds values) and MulABTToF32 over trainShapes32 in every
// family against the float64 oracle, and the asm family against the
// plain one.
func TestF32GradProductsMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, s := range trainShapes32 {
		// aᵀ*b: a is k x m, b is k x n, dst m x n.
		a32, a := randomDense32(rng, s.k, s.m)
		b32, b := randomDense32(rng, s.k, s.n)
		d032, d0 := randomDense32(rng, s.m, s.n)
		wantATB := NewDense(s.m, s.n)
		refMulATBTo(wantATB, a, b)
		addInto(wantATB, d0)
		// a*bᵀ: x is m x k, w is n x k.
		x32, x := randomDense32(rng, s.m, s.k)
		w32, w := randomDense32(rng, s.n, s.k)
		wantABT := NewDense(s.m, s.n)
		refMulABTTo(wantABT, x, w)

		var byFamily [2][2]*DenseF32
		for _, asm := range testFamilies() {
			setFamily(t, asm)
			name := fmt.Sprintf("family=%s/%dx%dx%d", KernelFamily(), s.m, s.k, s.n)
			gotATB := d032.Clone()
			MulATBAccF32(gotATB, a32, b32)
			equalishTol32(t, "MulATBAccF32/"+name, gotATB, wantATB, s.k)
			gotABT := NewDenseF32(s.m, s.n)
			for i := range gotABT.Data {
				gotABT.Data[i] = float32(math.NaN()) // fully overwritten
			}
			MulABTToF32(gotABT, x32, w32)
			equalishTol32(t, "MulABTToF32/"+name, gotABT, wantABT, s.k)
			byFamily[b2i(asm)] = [2]*DenseF32{gotATB, gotABT}
		}
		if hasAsm {
			for p, op := range []string{"MulATBAccF32", "MulABTToF32"} {
				asm, plain := byFamily[1][p], byFamily[0][p]
				for i, v := range asm.Data {
					if !closeTo32(v, plain.Data[i], s.k) {
						t.Fatalf("%s %dx%dx%d: asm %v, plain %v at %d", op, s.m, s.k, s.n, v, plain.Data[i], i)
					}
				}
			}
		}
	}
}

// addInto accumulates b into a.
func addInto(a, b *Dense) {
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// closeTo32 bounds the difference of two float32 results of one
// reduction of depth k summed in different orders.
func closeTo32(a, b float32, k int) bool {
	return tolClose32(a, float64(b), k)
}

// ulpDiff32 is the distance of a and b in float32 ulps, both zeros one
// point.
func ulpDiff32(a, b float32) int64 {
	key := func(v float32) int64 {
		i := int64(int32(math.Float32bits(v)))
		if i < 0 {
			i = math.MinInt32 - i
		}
		return i
	}
	d := key(a) - key(b)
	if d < 0 {
		d = -d
	}
	return d
}

// activationInputs are the values the activation tests sweep: a dense
// grid over where tanh and expm1 curve, tiny and huge magnitudes, the
// clamp, both zeros and the saturation region.
func activationInputs() []float32 {
	var xs []float32
	for x := -12.0; x <= 12; x += 1.0 / 512 {
		xs = append(xs, float32(x))
	}
	for e := -40; e <= 6; e++ {
		v := float32(math.Ldexp(1.37, e))
		xs = append(xs, v, -v)
	}
	xs = append(xs, 0, float32(math.Copysign(0, -1)), -86.9, -87, -87.5, -200, 200, 1e30, -1e30)
	return xs
}

// TestActKernelsMatchScalar pins the activation kernels of every family
// to their scalar definitions: tanh and SELU within a stated ulp bound,
// the SELU gradient to the bit.
func TestActKernelsMatchScalar(t *testing.T) {
	t.Run("Tanh32", testTanh32WithinUlps)
	t.Run("Selu32", testSelu32WithinUlps)
	t.Run("SeluGrad32", testSeluGrad32BitEqualScalar)
}

// testTanh32WithinUlps: Tanh32 stays within 2 ulp of float32(math.Tanh)
// in every family (the plain family is that function), whatever the
// slice length, and NaN stays NaN.
func testTanh32WithinUlps(t *testing.T) {
	const bound = 2
	xs := activationInputs()
	for _, asm := range testFamilies() {
		setFamily(t, asm)
		for _, n := range []int{len(xs), 1, 7, 9} {
			v := append([]float32(nil), xs[:n]...)
			Tanh32(v)
			for i, got := range v {
				want := float32(math.Tanh(float64(xs[i])))
				if d := ulpDiff32(got, want); d > bound {
					t.Fatalf("%s: Tanh32(%v) = %v, float32(math.Tanh) %v: %d ulp > %d", KernelFamily(), xs[i], got, want, d, bound)
				}
			}
		}
		v := []float32{float32(math.NaN())}
		if Tanh32(v); !math.IsNaN(float64(v[0])) {
			t.Fatalf("%s: Tanh32(NaN) = %v", KernelFamily(), v[0])
		}
	}
}

// testSelu32WithinUlps: BiasSelu32 without a bias stays within 2 ulp of
// lambdaAlpha*expm1(x) for x <= 0, rounded once, and is lambda*x to the
// bit for x > 0, in every family.
func testSelu32WithinUlps(t *testing.T) {
	const bound = 2
	const lambda, la = float32(1.0507009873554805), float32(1.0507009873554805 * 1.6732632423543772)
	xs := activationInputs()
	for _, asm := range testFamilies() {
		setFamily(t, asm)
		v := append([]float32(nil), xs...)
		BiasSelu32(v, nil, lambda, la)
		for i, got := range v {
			x := xs[i]
			if x > 0 {
				if got != lambda*x {
					t.Fatalf("%s: SELU(%v) = %v, want %v", KernelFamily(), x, got, lambda*x)
				}
				continue
			}
			want := float32(float64(la) * math.Expm1(float64(x)))
			if d := ulpDiff32(got, want); d > bound {
				t.Fatalf("%s: SELU(%v) = %v, want %v: %d ulp > %d", KernelFamily(), x, got, want, d, bound)
			}
		}
	}
}

// testSeluGrad32BitEqualScalar: the asm kernel is the scalar arm's two
// IEEE operations, so every length gives the scalar bits.
func testSeluGrad32BitEqualScalar(t *testing.T) {
	const lambda, la = float32(1.0507009873554805), float32(1.0507009873554805 * 1.6732632423543772)
	rng := rand.New(rand.NewSource(5))
	ys := append(activationInputs(), 0, float32(math.Copysign(0, -1)))
	for i := range ys {
		if ys[i] < 0 { // outputs of SELU are >= -lambdaAlpha
			ys[i] = float32(math.Max(float64(ys[i]), -float64(la)))
		}
	}
	g := make([]float32, len(ys))
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	for _, asm := range testFamilies() {
		setFamily(t, asm)
		for _, n := range []int{len(ys), 1, 8, 13} {
			dst := make([]float32, n)
			SeluGrad32(dst, g[:n], ys[:n], lambda, la)
			for i, got := range dst {
				if want := g[i] * seluDeriv32(ys[i], lambda, la); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s: SeluGrad32 at y=%v g=%v: %v, scalar %v", KernelFamily(), ys[i], g[i], got, want)
				}
			}
		}
	}
}

// reconOracle is ReconHead32 in float64 on the float32 inputs.
func reconOracle(hid, w, targets *Dense, rows []int32, c float64) (dHid, dw *Dense, sum float64) {
	out := NewDense(hid.Rows, w.Cols)
	refMulTo(out, hid, w)
	for i, r := range rows {
		for j := range out.Row(i) {
			y := math.Tanh(out.At(i, j))
			d := y - targets.At(int(r), j)
			sum += d * d
			out.Set(i, j, d*c*(1-y*y))
		}
	}
	dw = NewDense(w.Rows, w.Cols)
	refMulATBTo(dw, hid, out)
	dHid = NewDense(hid.Rows, hid.Cols)
	refMulABTTo(dHid, out, w)
	return dHid, dw, sum
}

// TestReconHead32MatchesRef runs the fused head in every family over
// even and odd row counts, odd k and every n%8 tail, against the float64
// oracle, onto a dw that already holds values.
func TestReconHead32MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := []struct{ r, k, n int }{{224, 8, 40}, {7, 8, 40}, {6, 3, 13}, {9, 5, 7}, {4, 8, 1}, {3, 1, 9}, {10, 9, 64}, {5, 16, 70}}
	for _, s := range shapes {
		hid32, hid := randomDense32(rng, s.r, s.k)
		w32, w := randomDense32(rng, s.k, s.n)
		tg32, tg := randomDense32(rng, 5, s.n)
		dw032, dw0 := randomDense32(rng, s.k, s.n)
		rows := make([]int32, s.r)
		for i := range rows {
			rows[i] = int32(rng.Intn(5))
		}
		const c = 0.01
		wantDHid, wantDw, wantSum := reconOracle(hid, w, tg, rows, c)
		addInto(wantDw, dw0)
		for _, asm := range testFamilies() {
			setFamily(t, asm)
			name := fmt.Sprintf("family=%s/%dx%dx%d", KernelFamily(), s.r, s.k, s.n)
			dHid, dw := NewDenseF32(s.r, s.k), dw032.Clone()
			sum := ReconHead32(dHid, hid32, w32, dw, tg32, rows, c)
			if math.Abs(sum-wantSum) > 1e-5*(1+wantSum) {
				t.Fatalf("%s: sum %v, want %v", name, sum, wantSum)
			}
			equalishTol32(t, "dHid/"+name, dHid, wantDHid, s.n)
			equalishTol32(t, "dw/"+name, dw, wantDw, s.r)
		}
	}
}

// TestReconHead32RowsIndependent: the asm family runs rows in pairs and
// an odd last row as the first of a pair with a zero second row; a row's
// results must not depend on which, so one call over r rows and r calls
// of one row each leave dw, dHid and the error bit for bit the same.
func TestReconHead32RowsIndependent(t *testing.T) {
	if !hasAsm {
		t.Skip("only the plain family runs on this build or CPU")
	}
	rng := rand.New(rand.NewSource(22))
	setFamily(t, true)
	for _, n := range []int{3, 40} {
		for _, k := range []int{3, 8} {
			const r = 7
			name := fmt.Sprintf("%dx%dx%d", r, k, n)
			hid, _ := randomDense32(rng, r, k)
			w, _ := randomDense32(rng, k, n)
			targets, _ := randomDense32(rng, 3, n)
			rows := []int32{0, 2, 1, 1, 0, 2, 2}
			dwAll, _ := randomDense32(rng, k, n)
			dwOne := dwAll.Clone()
			dHidAll, dHidOne := NewDenseF32(r, k), NewDenseF32(r, k)
			sumAll := ReconHead32(dHidAll, hid, w, dwAll, targets, rows, 0.01)
			var sumOne float64
			for i := range rows {
				row := &DenseF32{Rows: 1, Cols: k, Data: hid.Row(i)}
				dRow := &DenseF32{Rows: 1, Cols: k, Data: dHidOne.Row(i)}
				sumOne += ReconHead32(dRow, row, w, dwOne, targets, rows[i:i+1], 0.01)
			}
			if sumAll != sumOne {
				t.Fatalf("%s: Σd² %v over all rows, %v row by row", name, sumAll, sumOne)
			}
			for i, v := range dwAll.Data {
				if math.Float32bits(v) != math.Float32bits(dwOne.Data[i]) {
					t.Fatalf("%s: dw[%d] %v over all rows, %v row by row", name, i, v, dwOne.Data[i])
				}
			}
			for i, v := range dHidAll.Data {
				if math.Float32bits(v) != math.Float32bits(dHidOne.Data[i]) {
					t.Fatalf("%s: dHid[%d] %v over all rows, %v row by row", name, i, v, dHidOne.Data[i])
				}
			}
		}
	}
}

// modelParamSizes are the element counts of the model's parameters at
// DefaultConfig (f: 3x16, 16, 16x8, 8; g: 40x8, 8x4; h: 4x8, 8x40;
// z: 28x8, 8, 8x1, 1), the list the optimizer sweeps every step.
var modelParamSizes = []int{48, 16, 128, 8, 320, 32, 32, 320, 224, 8, 8, 1}

// TestAdamSweep32BitEqualPlain runs ten Adam steps over the model's
// parameter list in both families, split (two gradients, weights and a
// clip factor) and whole (g1 = g0), and asks for the same weights,
// moments and zeroed gradients to the bit.
func TestAdamSweep32BitEqualPlain(t *testing.T) {
	if !hasAsm {
		t.Skip("only the plain family runs on this build or CPU")
	}
	for _, split := range []bool{true, false} {
		type run struct{ w, st [][]float32 }
		var runs [2]run
		for _, asm := range []bool{false, true} {
			setFamily(t, asm)
			rng := rand.New(rand.NewSource(23))
			var r run
			for _, n := range modelParamSizes {
				w := make([]float32, n)
				for i := range w {
					w[i] = float32(rng.NormFloat64())
				}
				r.w = append(r.w, w)
				r.st = append(r.st, make([]float32, AdamStateLen(n)))
			}
			for step := 1; step <= 10; step++ {
				c := AdamCoef{W0: 1, Scale: 1, B1: 0.9, OneMinusB1: 0.1, B2: 0.999, OneMinusB2: 0.001,
					BC1: float32(1 - math.Pow(0.9, float64(step))), BC2: float32(1 - math.Pow(0.999, float64(step))),
					Eps: 1e-8, LR: 1e-2, WDecay: 1e-3}
				if split {
					c.W0, c.W1, c.Scale = 0.5, 0.5, 0.8125
				}
				for p, w := range r.w {
					g0, g1 := make([]float32, len(w)), make([]float32, len(w))
					for i := range g0 {
						g0[i], g1[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
					}
					if !split {
						g1 = g0
					}
					AdamSweep32(w, g0, g1, r.st[p], &c)
					for i := range g0 {
						if g0[i] != 0 || g1[i] != 0 {
							t.Fatalf("%s split=%v: gradient %d of parameter %d not zeroed", KernelFamily(), split, i, p)
						}
					}
				}
			}
			runs[b2i(asm)] = r
		}
		for p := range runs[0].w {
			for name, pair := range map[string][2][]float32{"weight": {runs[0].w[p], runs[1].w[p]}, "moment": {runs[0].st[p], runs[1].st[p]}} {
				for i, v := range pair[0] {
					if math.Float32bits(v) != math.Float32bits(pair[1][i]) {
						t.Fatalf("split=%v: %s %d of parameter %d: plain %v, asm %v", split, name, i, p, v, pair[1][i])
					}
				}
			}
		}
	}
}

// TestF32TrainKernelsZeroAlloc pins the float32 training kernels at zero
// allocations in every family: the gradient products at the shapes a
// training shard issues, the head at DefaultConfig's decoder, and the
// optimizer sweep.
func TestF32TrainKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, asm := range testFamilies() {
		setFamily(t, asm)
		for _, s := range gradShapes {
			a, _ := randomDense32(rng, s.k, s.m)
			b, _ := randomDense32(rng, s.k, s.n)
			dst := NewDenseF32(s.m, s.n)
			if allocs := testing.AllocsPerRun(50, func() { MulATBAccF32(dst, a, b) }); allocs != 0 {
				t.Fatalf("%s: MulATBAccF32 %dx%dᵀ·%dx%d allocs/op = %v, want 0", KernelFamily(), s.k, s.m, s.k, s.n, allocs)
			}
			x, _ := randomDense32(rng, s.m, s.k)
			w, _ := randomDense32(rng, s.n, s.k)
			if allocs := testing.AllocsPerRun(50, func() { MulABTToF32(dst, x, w) }); allocs != 0 {
				t.Fatalf("%s: MulABTToF32 %dx%d·(%dx%d)ᵀ allocs/op = %v, want 0", KernelFamily(), s.m, s.k, s.n, s.k, allocs)
			}
		}
		hid, _ := randomDense32(rng, 223, 8)
		w, _ := randomDense32(rng, 8, 40)
		tg, _ := randomDense32(rng, 9, 40)
		dHid, dw, rows := NewDenseF32(223, 8), NewDenseF32(8, 40), make([]int32, 223)
		if allocs := testing.AllocsPerRun(20, func() { ReconHead32(dHid, hid, w, dw, tg, rows, 0.01) }); allocs != 0 {
			t.Fatalf("%s: ReconHead32 allocs/op = %v, want 0", KernelFamily(), allocs)
		}
		wt, g := make([]float32, 37), make([]float32, 37)
		st := make([]float32, AdamStateLen(37))
		c := AdamCoef{W0: 1, Scale: 1, B1: 0.9, OneMinusB1: 0.1, B2: 0.999, OneMinusB2: 0.001, BC1: 0.1, BC2: 0.001, Eps: 1e-8, LR: 1e-2}
		if allocs := testing.AllocsPerRun(50, func() { AdamSweep32(wt, g, g, st, &c) }); allocs != 0 {
			t.Fatalf("%s: AdamSweep32 allocs/op = %v, want 0", KernelFamily(), allocs)
		}
	}
}

// TestAlphaDropout32BitEqualPlain: the asm family's dropout pass and
// element product give the plain loops' bits, at lengths that leave
// every tail of the 8-lane body and of the 4-unit draws.
func TestAlphaDropout32BitEqualPlain(t *testing.T) {
	if !hasAsm {
		t.Skip("only the plain family runs on this build or CPU")
	}
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 3, 4, 7, 8, 9, 15, 16, 17, 1792} {
		x, g := make([]float32, n), make([]float32, n)
		words := make([]uint64, (n+3)/4)
		for i := range x {
			x[i], g[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		}
		for i := range words {
			words[i] = rng.Uint64()
		}
		var y, slope, back [2][]float32
		for _, asm := range []bool{false, true} {
			setFamily(t, asm)
			f := b2i(asm)
			y[f], slope[f], back[f] = make([]float32, n), make([]float32, n), make([]float32, n)
			AlphaDropout32(y[f], slope[f], x, words, 58982, 0.95, -1.7580993, 0.09)
			MulElems32(back[f], g, slope[f])
		}
		for i := 0; i < n; i++ {
			for name, pair := range map[string][2][]float32{"y": {y[0], y[1]}, "slope": {slope[0], slope[1]}, "grad": {back[0], back[1]}} {
				if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
					t.Fatalf("n=%d: %s[%d] plain %v, asm %v", n, name, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// TestGatherScatterRows: GatherRowsF32 copies the indexed rows and
// ScatterAddRowsF32 adds each row onto its index in row order — repeated
// indices accumulate — bit for bit the scalar loops, in every family, at
// widths the 8-lane kernels take (8, 16) and ones they leave to the
// loops (5); an index outside the indexed matrix panics.
func TestGatherScatterRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := []int32{2, 0, 2, 2, 1, 0, 2, 1, 1, 2, 0}
	for _, c := range []int{8, 16, 5} {
		src, _ := randomDense32(rng, 3, c)
		grad, _ := randomDense32(rng, len(rows), c)
		base, _ := randomDense32(rng, 3, c)
		wantG, wantS := NewDenseF32(len(rows), c), base.Clone()
		for i, r := range rows {
			for j := 0; j < c; j++ {
				wantG.Data[i*c+j] = src.Data[int(r)*c+j]
				wantS.Data[int(r)*c+j] += grad.Data[i*c+j]
			}
		}
		for _, asm := range testFamilies() {
			setFamily(t, asm)
			name := fmt.Sprintf("family=%s/cols=%d", KernelFamily(), c)
			g, s := NewDenseF32(len(rows), c), base.Clone()
			GatherRowsF32(g, src, rows)
			ScatterAddRowsF32(s, grad, rows)
			for i := range g.Data {
				if math.Float32bits(g.Data[i]) != math.Float32bits(wantG.Data[i]) {
					t.Fatalf("%s: gathered %v at %d, want %v", name, g.Data[i], i, wantG.Data[i])
				}
			}
			for i := range s.Data {
				if math.Float32bits(s.Data[i]) != math.Float32bits(wantS.Data[i]) {
					t.Fatalf("%s: scattered %v at %d, want %v", name, s.Data[i], i, wantS.Data[i])
				}
			}
			for _, bad := range []int32{3, -1} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s: row %d of 3 did not panic", name, bad)
						}
					}()
					GatherRowsF32(NewDenseF32(1, c), src, []int32{bad})
				}()
			}
		}
	}
}

// TestBiasSelu32IsAddThenSelu: SELU with the bias folded into its pass
// gives, bit for bit, the bias added by a pass of its own and then
// an unbiased SELU pass, in every family, for bias rows the 8-lane kernel carries (8,
// 16), one it adds first (5) and none — over inputs that include −0,
// +0 and NaN, where adding a zero bias could change a sign.
func TestBiasSelu32IsAddThenSelu(t *testing.T) {
	const lambda, la = float32(1.0507009873554805), float32(1.0507009873554805 * 1.6732632423543772)
	rng := rand.New(rand.NewSource(29))
	negZero := float32(math.Copysign(0, -1))
	for _, nb := range []int{8, 16, 5, 0} {
		rows := 7
		v := make([]float32, rows*max(nb, 3))
		for i := range v {
			v[i] = float32(rng.NormFloat64() * 3)
		}
		v[0], v[1], v[2] = negZero, 0, float32(math.NaN())
		var bias []float32
		if nb > 0 {
			bias = make([]float32, nb)
			for j := range bias {
				bias[j] = float32(rng.NormFloat64())
			}
			bias[0] = negZero
		}
		for _, asm := range testFamilies() {
			setFamily(t, asm)
			want := append([]float32(nil), v...)
			for i := range want {
				if nb > 0 {
					want[i] += bias[i%nb]
				}
			}
			BiasSelu32(want, nil, lambda, la)
			got := append([]float32(nil), v...)
			BiasSelu32(got, bias, lambda, la)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s, bias of %d: value %d is %v, a pass of its own gives %v", KernelFamily(), nb, i, got[i], want[i])
				}
			}
		}
	}
}
