package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// reconOracle is the unfused reconstruction term ReconLossRows replaces:
// the decoder's forward pass, MSELoss.Compute against the gathered
// targets, the gradient scaled by weight, and the backward pass.
func reconOracle(w *mat.Workspace, dec *MLP, codes, targets *mat.Dense, rows []int32, weight float64) (float64, *mat.Dense) {
	gathered := w.GetRaw(len(rows), targets.Cols)
	for i, r := range rows {
		copy(gathered.Row(i), targets.Row(int(r)))
	}
	loss, grad := MSELoss{}.Compute(w, dec.Forward(w, codes, true), gathered)
	for i := range grad.Data {
		grad.Data[i] *= weight
	}
	return loss, dec.Backward(w, grad)
}

// reconCase builds a decoder twice from one seed — the second for the
// oracle, with identical weights and dropout masks — and the inputs of
// one reconstruction pass: rows codes of width in, and row indexes into
// five targets of width n with values in {-1, 0, 1}.
func reconCase(seed int64, spec TwoLayerSpec, rows, n int) (fused, oracle *MLP, codes, targets *mat.Dense, idx []int32) {
	build := func() *MLP {
		if spec.Hidden == 0 { // the output layer alone
			return NewMLP(NewLinearAct("h.l2", spec.In, n, false, Tanh{}, InitLeCun, rand.New(rand.NewSource(seed))))
		}
		s := spec
		s.Out = n
		return s.Build(rand.New(rand.NewSource(seed)))
	}
	rng := rand.New(rand.NewSource(seed + 1))
	codes = randDense(rng, rows, spec.In)
	targets = mat.NewDense(5, n)
	for i := range targets.Data {
		targets.Data[i] = float64(rng.Intn(3) - 1)
	}
	idx = make([]int32, rows)
	for i := range idx {
		idx[i] = int32(rng.Intn(targets.Rows))
	}
	return build(), build(), codes, targets, idx
}

// relClose reports whether every element of got is within tol of want,
// relative to want's largest magnitude (or 1, if that is smaller).
func relClose(got, want []float64, tol float64) bool {
	scale := 1.0
	for _, v := range want {
		scale = max(scale, math.Abs(v))
	}
	for i, v := range got {
		if !(math.Abs(v-want[i]) <= tol*scale) {
			return false
		}
	}
	return len(got) == len(want)
}

// TestReconLossRowsMatchesOracle holds the fused reconstruction head to
// the unfused oracle — loss, the output layer's weight gradient and the
// gradient it hands back — to 1e-12 of each result's largest magnitude,
// under whichever kernel family runs (the noasm build runs plain). The
// sweep covers 1 to 9 rows and a training shard's 224, output widths 1,
// 3, 13 and 40 (ragged 4-lane chunks and none), hidden widths 1, 3 and
// 8, and ReconWeight 1 and 0.25. Then the same for a whole two-layer
// decoder with alpha-dropout, whose first layers run outside the kernel.
func TestReconLossRowsMatchesOracle(t *testing.T) {
	check := func(name string, fused, oracle *MLP, codes, targets *mat.Dense, idx []int32, weight float64) {
		t.Helper()
		loss, dCodes := fused.ReconLossRows(nil, codes, targets, idx, weight)
		wantLoss, wantDCodes := reconOracle(nil, oracle, codes, targets, idx, weight)
		if !relClose([]float64{loss}, []float64{wantLoss}, 1e-12) {
			t.Fatalf("%s: loss %v, oracle %v", name, loss, wantLoss)
		}
		if !relClose(dCodes.Data, wantDCodes.Data, 1e-12) {
			t.Fatalf("%s: input gradient %v, oracle %v", name, dCodes.Data, wantDCodes.Data)
		}
		op := oracle.Params()
		for i, p := range fused.Params() {
			if !relClose(p.Grad.Data, op[i].Grad.Data, 1e-12) {
				t.Fatalf("%s: %s gradient %v, oracle %v", name, p.Name, p.Grad.Data, op[i].Grad.Data)
			}
		}
	}
	seed := int64(0)
	for _, weight := range []float64{1, 0.25} {
		for _, n := range []int{1, 3, 13, 40} {
			for _, k := range []int{1, 3, 8} {
				for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 224} {
					seed++
					fused, oracle, codes, targets, idx := reconCase(seed, TwoLayerSpec{In: k}, rows, n)
					check(fmt.Sprintf("layer %dx%dx%d weight %v", rows, k, n, weight), fused, oracle, codes, targets, idx, weight)
				}
			}
		}
		spec := TwoLayerSpec{Name: "h", In: 4, Hidden: 8, ActHidden: SELU{}, ActOut: Tanh{}, Dropout: 0.1, Init: InitLeCun}
		fused, oracle, codes, targets, idx := reconCase(99, spec, 224, 40)
		check(fmt.Sprintf("decoder weight %v", weight), fused, oracle, codes, targets, idx, weight)
	}
}

// TestReconLossRowsGradCheck meets the fused head's gradients with
// central differences of its own loss, on a small decoder output layer
// with ReconWeight 0.25 (the loss is unweighted, the gradients are
// weighted): the weight gradient and the input gradient, each element.
func TestReconLossRowsGradCheck(t *testing.T) {
	const weight, h = 0.25, 1e-5
	dec, _, codes, targets, idx := reconCase(5, TwoLayerSpec{In: 3}, 6, 5)
	w := dec.Params()[0]
	ZeroGrads(dec.Params())
	_, dCodes := dec.ReconLossRows(nil, codes, targets, idx, weight)
	grad := w.Grad.Clone()
	loss := func() float64 {
		l, _ := dec.ReconLossRows(nil, codes, targets, idx, weight)
		return weight * l
	}
	numeric := func(v []float64, i int) float64 {
		orig := v[i]
		v[i] = orig + h
		lp := loss()
		v[i] = orig - h
		lm := loss()
		v[i] = orig
		return (lp - lm) / (2 * h)
	}
	for i, got := range grad.Data {
		if want := numeric(w.Value.Data, i); math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("dW[%d]: analytic %v, numeric %v", i, got, want)
		}
	}
	for i, got := range dCodes.Data {
		if want := numeric(codes.Data, i); math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("dCodes[%d]: analytic %v, numeric %v", i, got, want)
		}
	}
}

// reconShard is the decoder of DefaultConfig on one 32-sample training
// shard: 224 property slots of 4-wide codes through 8 hidden SELU units
// with alpha-dropout to a 40-wide tanh output, against 47 targets.
func reconShard() (dec *MLP, codes, targets *mat.Dense, idx []int32) {
	spec := TwoLayerSpec{Name: "h", In: 4, Hidden: 8, ActHidden: SELU{}, ActOut: Tanh{}, Dropout: 0.1, Init: InitLeCun}
	dec, _, codes, _, idx = reconCase(3, spec, 224, 40)
	rng := rand.New(rand.NewSource(4))
	targets = mat.NewDense(47, 40)
	for i := range targets.Data {
		targets.Data[i] = float64(rng.Intn(2))
	}
	for i := range idx {
		idx[i] = int32(rng.Intn(targets.Rows))
	}
	return dec, codes, targets, idx
}

// TestReconHeadZeroAlloc pins a warm reconstruction pass — the decoder's
// hidden layer and dropout forward, the fused head, the backward pass —
// at zero allocations on a workspace reset between passes.
func TestReconHeadZeroAlloc(t *testing.T) {
	dec, codes, targets, idx := reconShard()
	w := mat.NewWorkspace()
	pass := func() {
		w.Reset()
		dec.ReconLossRows(w, codes, targets, idx, 1)
	}
	pass()
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("a warm reconstruction pass allocates %v times, want 0", allocs)
	}
}

// BenchmarkReconHead times the decoder's output layer and its loss on
// one training shard, 224×8 → 40: "oracle" is the unfused LinearAct
// forward, MSELoss against the (pre-gathered) targets and backward;
// "fused" is ReconLossRows on the same layer. Their ratio is the
// layer's gain, measured in one run.
func BenchmarkReconHead(b *testing.B) {
	_, _, targets, idx := reconShard()
	rng := rand.New(rand.NewSource(6))
	hid := randDense(rng, len(idx), 8)
	gathered := mat.NewDense(len(idx), targets.Cols)
	for i, r := range idx {
		copy(gathered.Row(i), targets.Row(int(r)))
	}
	layer := func() *MLP {
		return NewMLP(NewLinearAct("h.l2", 8, 40, false, Tanh{}, InitLeCun, rand.New(rand.NewSource(7))))
	}
	w := mat.NewWorkspace()
	b.Run("oracle", func(b *testing.B) {
		l := layer().Layers[0]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			_, g := MSELoss{}.Compute(w, l.Forward(w, hid, true), gathered)
			l.Backward(w, g)
		}
	})
	b.Run("fused", func(b *testing.B) {
		dec := layer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			dec.ReconLossRows(w, hid, targets, idx, 1)
		}
	})
}
