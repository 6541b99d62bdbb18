package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// mseLoss is the mean squared error and its gradient w.r.t. pred, the
// reference the fused reconstruction term is held to. Each element's
// error and gradient are taken in float64 from the float32 operands and
// the gradient rounded once; the loss is summed in float64.
func mseLoss(ws *mat.WorkspaceF32, pred, target *mat.DenseF32) (float64, *mat.DenseF32) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("nn: mse loss shape mismatch %dx%d vs %dx%d", pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	n := float64(len(pred.Data))
	grad := ws.GetRaw(pred.Rows, pred.Cols)
	var sum float64
	for i, p := range pred.Data {
		d := float64(p) - float64(target.Data[i])
		sum += d * d
		grad.Data[i] = float32(2 * d / n)
	}
	return sum / n, grad
}

// reconOracle is the unfused reconstruction term ReconLossRows replaces:
// the forward pass (of the decoder, or of its output layer alone), the
// MSE against the gathered targets, the gradient scaled by weight, and
// the backward pass.
func reconOracle(w *mat.WorkspaceF32, forward func(*mat.DenseF32) *mat.DenseF32, backward func(*mat.DenseF32) *mat.DenseF32, codes, targets *mat.DenseF32, rows []int32, weight float64) (float64, *mat.DenseF32) {
	gathered := w.GetRaw(len(rows), targets.Cols)
	for i, r := range rows {
		copy(gathered.Row(i), targets.Row(int(r)))
	}
	loss, grad := mseLoss(w, forward(codes), gathered)
	for i := range grad.Data {
		grad.Data[i] *= float32(weight)
	}
	return loss, backward(grad)
}

// reconInputs are the inputs of one reconstruction pass: rows codes of
// width in, and row indexes into five targets of width n with values in
// {-1, 0, 1}.
func reconInputs(seed int64, in, rows, n int) (codes, targets *mat.DenseF32, idx []int32) {
	rng := rand.New(rand.NewSource(seed + 1))
	codes = randDense(rng, rows, in)
	targets = mat.NewDenseF32(5, n)
	for i := range targets.Data {
		targets.Data[i] = float32(rng.Intn(3) - 1)
	}
	idx = make([]int32, rows)
	for i := range idx {
		idx[i] = int32(rng.Intn(targets.Rows))
	}
	return codes, targets, idx
}

// reconCase builds a decoder of output width n twice from one seed —
// the second for the oracle, with identical weights and dropout masks —
// and the inputs of one reconstruction pass.
func reconCase(seed int64, spec TwoLayerSpec, rows, n int) (fused, oracle *MLP, codes, targets *mat.DenseF32, idx []int32) {
	build := func() *MLP {
		s := spec
		s.Out = n
		return s.Build(rand.New(rand.NewSource(seed)))
	}
	codes, targets, idx = reconInputs(seed, spec.In, rows, n)
	return build(), build(), codes, targets, idx
}

// headCase is reconCase for a decoder's output layer alone: a bias-free
// tanh layer from in to n units, twice from one seed.
func headCase(seed int64, in, rows, n int) (fused, oracle *LinearAct, codes, targets *mat.DenseF32, idx []int32) {
	build := func() *LinearAct {
		return newLinearAct(NewParam, "h.l2", in, n, false, Tanh{}, InitLeCun, rand.New(rand.NewSource(seed)))
	}
	codes, targets, idx = reconInputs(seed, in, rows, n)
	return build(), build(), codes, targets, idx
}

// relClose reports whether every element of got is within tol of want,
// relative to want's largest magnitude (or 1, if that is smaller).
func relClose[T float32 | float64](got, want []T, tol float64) bool {
	scale := 1.0
	for _, v := range want {
		scale = max(scale, math.Abs(float64(v)))
	}
	for i, v := range got {
		if !(math.Abs(float64(v)-float64(want[i])) <= tol*scale) {
			return false
		}
	}
	return len(got) == len(want)
}

// TestReconLossRowsMatchesOracle holds the fused reconstruction head
// (reconHead) to the unfused oracle — loss, the output layer's weight gradient and the
// gradient it hands back — to 1e-6 of each result's largest magnitude
// (float32 rounded in other orders; 1e-12 in float64), under whichever
// kernel family runs (the noasm build runs plain). The sweep covers 1 to
// 9 rows and a training shard's 224, output widths 1, 3, 13 and 40
// (ragged 8-lane chunks and none), hidden widths 1, 3 and
// 8, and ReconWeight 1 and 0.25. Then the same for a whole two-layer
// decoder with alpha-dropout, whose first layers run outside the kernel.
func TestReconLossRowsMatchesOracle(t *testing.T) {
	check := func(name string, loss float64, dCodes *mat.DenseF32, params []*Param, wantLoss float64, wantDCodes *mat.DenseF32, wantParams []*Param) {
		t.Helper()
		if !relClose([]float64{loss}, []float64{wantLoss}, 1e-6) {
			t.Fatalf("%s: loss %v, oracle %v", name, loss, wantLoss)
		}
		if !relClose(dCodes.Data, wantDCodes.Data, 1e-6) {
			t.Fatalf("%s: input gradient %v, oracle %v", name, dCodes.Data, wantDCodes.Data)
		}
		for i, p := range params {
			if !relClose(p.Grad.Data, wantParams[i].Grad.Data, 1e-6) {
				t.Fatalf("%s: %s gradient %v, oracle %v", name, p.Name, p.Grad.Data, wantParams[i].Grad.Data)
			}
		}
	}
	seed := int64(0)
	for _, weight := range []float64{1, 0.25} {
		for _, n := range []int{1, 3, 13, 40} {
			for _, k := range []int{1, 3, 8} {
				for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 224} {
					seed++
					fused, oracle, codes, targets, idx := headCase(seed, k, rows, n)
					loss, dCodes := fused.reconHead(nil, codes, targets, idx, weight)
					wantLoss, wantDCodes := reconOracle(nil,
						func(x *mat.DenseF32) *mat.DenseF32 { return oracle.Forward(nil, x) },
						func(g *mat.DenseF32) *mat.DenseF32 { return oracle.Backward(nil, g) },
						codes, targets, idx, weight)
					check(fmt.Sprintf("layer %dx%dx%d weight %v", rows, k, n, weight), loss, dCodes, fused.params(), wantLoss, wantDCodes, oracle.params())
				}
			}
		}
		spec := TwoLayerSpec{Name: "h", In: 4, Hidden: 8, ActHidden: SELU{}, ActOut: Tanh{}, Dropout: 0.1, Init: InitLeCun}
		fused, oracle, codes, targets, idx := reconCase(99, spec, 224, 40)
		loss, dCodes := fused.ReconLossRows(nil, codes, targets, idx, weight)
		wantLoss, wantDCodes := reconOracle(nil,
			func(x *mat.DenseF32) *mat.DenseF32 { return oracle.Forward(nil, x, true) },
			func(g *mat.DenseF32) *mat.DenseF32 { return oracle.Backward(nil, g) },
			codes, targets, idx, weight)
		check(fmt.Sprintf("decoder weight %v", weight), loss, dCodes, fused.Params(), wantLoss, wantDCodes, oracle.Params())
	}
}

// TestReconLossRowsGradCheck meets the fused head's gradients with
// central differences of its own loss, on a small decoder output layer
// with ReconWeight 0.25 (the loss is unweighted, the gradients are
// weighted): the weight gradient and the input gradient, each element.
// The head computes in float32, so the step is 1e-3 (1e-5 in float64)
// and the tolerance 1e-5 (1e-7): the loss carries float32 rounding of
// ~1e-8 per element summed, a few 1e-6 after the division.
func TestReconLossRowsGradCheck(t *testing.T) {
	const weight, h = 0.25, 1e-3
	head, _, codes, targets, idx := headCase(5, 3, 6, 5)
	w := head.W
	_, dCodes := head.reconHead(nil, codes, targets, idx, weight)
	grad := w.Grad.Clone()
	loss := func() float64 {
		l, _ := head.reconHead(nil, codes, targets, idx, weight)
		return weight * l
	}
	numeric := func(v []float32, i int) float64 {
		orig := v[i]
		up, dn := orig+h, orig-h
		v[i] = up
		lp := loss()
		v[i] = dn
		lm := loss()
		v[i] = orig
		return (lp - lm) / (float64(up) - float64(dn))
	}
	for i, got := range grad.Data {
		if want := numeric(w.Value.Data, i); math.Abs(float64(got)-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("dW[%d]: analytic %v, numeric %v", i, got, want)
		}
	}
	for i, got := range dCodes.Data {
		if want := numeric(codes.Data, i); math.Abs(float64(got)-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("dCodes[%d]: analytic %v, numeric %v", i, got, want)
		}
	}
}

// reconShard is the decoder of DefaultConfig on one 32-sample training
// shard: 224 property slots of 4-wide codes through 8 hidden SELU units
// with alpha-dropout to a 40-wide tanh output, against 47 targets.
func reconShard() (dec *MLP, codes, targets *mat.DenseF32, idx []int32) {
	spec := TwoLayerSpec{Name: "h", In: 4, Hidden: 8, ActHidden: SELU{}, ActOut: Tanh{}, Dropout: 0.1, Init: InitLeCun}
	dec, _, codes, _, idx = reconCase(3, spec, 224, 40)
	rng := rand.New(rand.NewSource(4))
	targets = mat.NewDenseF32(47, 40)
	for i := range targets.Data {
		targets.Data[i] = float32(rng.Intn(2))
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
	w := mat.NewWorkspaceF32()
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
// forward, the MSE against the (pre-gathered) targets and backward;
// "fused" is reconHead on the same layer. Their ratio is the
// layer's gain, measured in one run.
func BenchmarkReconHead(b *testing.B) {
	_, _, targets, idx := reconShard()
	rng := rand.New(rand.NewSource(6))
	hid := randDense(rng, len(idx), 8)
	gathered := mat.NewDenseF32(len(idx), targets.Cols)
	for i, r := range idx {
		copy(gathered.Row(i), targets.Row(int(r)))
	}
	layer := func() *LinearAct {
		return newLinearAct(NewParam, "h.l2", 8, 40, false, Tanh{}, InitLeCun, rand.New(rand.NewSource(7)))
	}
	w := mat.NewWorkspaceF32()
	b.Run("oracle", func(b *testing.B) {
		l := layer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			_, g := mseLoss(w, l.Forward(w, hid), gathered)
			l.Backward(w, g)
		}
	})
	b.Run("fused", func(b *testing.B) {
		l := layer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			l.reconHead(w, hid, targets, idx, 1)
		}
	})
}
