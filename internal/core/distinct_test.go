package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/nn"
)

// referenceStep is the per-occurrence oracle of the distinct-row engine:
// one joint forward/backward with every property occurrence expanded into
// its own row and pushed through nn.MLP.Forward/Backward and the plain
// losses, the way the model computed before batches stored each distinct
// vector once. It accumulates into the model's parameter gradients and
// returns the scaled predictions and both losses.
func referenceStep(m *Model, samples []Sample, train bool) (pred []float64, rLoss, reconLoss float64) {
	cfg := m.Cfg
	per, bSize := cfg.NumEssential+cfg.NumOptional, len(samples)
	scale := mat.NewDenseF32(bSize, 3)
	vecs := mat.NewDenseF32(bSize*per, cfg.PropertySize)
	targets := mat.NewDenseF32(bSize, 1)
	feat, vec := make([]float64, 3), make([]float64, cfg.PropertySize)
	enc := encoding.NewPropertyEncoder(cfg.PropertySize) // a replica has none
	encode := func(row int, value string) {
		enc.EncodeTo(vec, value)
		rowToF32(vecs.Row(row), vec)
	}
	for i, s := range samples {
		ScaleOutFeaturesInto(feat, s.ScaleOut)
		m.norm.TransformInPlace(feat)
		rowToF32(scale.Row(i), feat)
		for k, p := range s.Essential {
			encode(i*per+k, p.Value)
		}
		for k, p := range s.Optional {
			encode(i*per+cfg.NumEssential+k, p.Value)
		}
		targets.Set(i, 0, float32(m.target.ToScaled(s.RuntimeSec)))
	}
	e := m.f.Forward(nil, scale, train)
	codes := m.g.Forward(nil, vecs, train)
	recon := m.h.Forward(nil, codes, train)
	r := mat.NewDenseF32(bSize, cfg.CombinedDim())
	for i, s := range samples {
		row := r.Row(i)
		copy(row, e.Row(i))
		off := cfg.ScaleOutDim
		for k := 0; k < cfg.NumEssential; k++ {
			copy(row[off:], codes.Row(i*per+k))
			off += cfg.EncodingDim
		}
		for k := range s.Optional {
			for j, c := range codes.Row(i*per + cfg.NumEssential + k) {
				row[off+j] += c / float32(len(s.Optional))
			}
		}
	}
	out := m.z.Forward(nil, r, train)
	for _, v := range out.Data {
		pred = append(pred, float64(v))
	}

	rLoss, rGrad := nn.HuberLoss{Delta: cfg.HuberDelta}.Compute(nil, out, targets)
	reconLoss, reconGrad := mseRef(recon, vecs)
	gradR := m.z.Backward(nil, rGrad)
	gradCodes := mat.NewDenseF32(bSize*per, cfg.EncodingDim)
	for i, s := range samples {
		row := gradR.Row(i)
		off := cfg.ScaleOutDim
		for k := 0; k < cfg.NumEssential; k++ {
			copy(gradCodes.Row(i*per+k), row[off:off+cfg.EncodingDim])
			off += cfg.EncodingDim
		}
		for k := range s.Optional {
			dst := gradCodes.Row(i*per + cfg.NumEssential + k)
			for j := range dst {
				dst[j] = row[off+j] / float32(len(s.Optional))
			}
		}
	}
	mat.AddInPlaceF32(gradCodes, m.h.Backward(nil, reconGrad))
	m.g.Backward(nil, gradCodes)
	gradE := mat.NewDenseF32(bSize, cfg.ScaleOutDim)
	mat.SliceColsToF32(gradE, gradR, 0, cfg.ScaleOutDim)
	m.f.Backward(nil, gradE)
	return pred, rLoss, reconLoss
}

// mseRef is the mean squared error of pred against target and its
// gradient w.r.t. pred, each element's error and gradient taken in
// float64 and the gradient rounded once.
func mseRef(pred, target *mat.DenseF32) (float64, *mat.DenseF32) {
	n := float64(len(pred.Data))
	grad := mat.NewDenseF32(pred.Rows, pred.Cols)
	var sum float64
	for i, p := range pred.Data {
		d := float64(p) - float64(target.Data[i])
		sum += d * d
		grad.Data[i] = float32(2 * d / n)
	}
	return sum / n, grad
}

// stepGrads runs the passes of a training step and leaves the step's
// gradient in m's parameters instead of stepping them: a split step's
// shard gradients summed into the first shard's, rounded as Adam's
// sweep rounds the sum.
func stepGrads(m *Model, run *trainRun, idx []int) (rLoss, reconLoss float64) {
	rLoss, reconLoss, w1 := m.shardPasses(run, idx)
	if w1 != 0 {
		reduceGrads(m.Params(), run.second.Params(), float32(1-w1), float32(w1))
	}
	return rLoss, reconLoss
}

// reduceGrads sums src's gradients into dst's, weighted, as Adam's sweep
// forms the sum, and zeroes src's.
func reduceGrads(dst, src []*nn.Param, w0, w1 float32) {
	for k, p := range dst {
		s := src[k].Grad.Data
		for i, g := range p.Grad.Data {
			p.Grad.Data[i] = float32(w0*g) + float32(w1*s[i])
			s[i] = 0
		}
	}
}

// allOf is the index of every sample, in order: the whole set as one
// mini-batch.
func allOf(samples []Sample) []int {
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// distinctSamples gives every property of every sample a value no other
// slot has, numbers and text alike.
func distinctSamples(n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		s := &out[i]
		s.ScaleOut = 2 + i
		s.RuntimeSec = 100 + 7*float64(i)
		s.Essential = []encoding.Property{
			{Name: "dataset_size_mb", Value: fmt.Sprint(5000 + 13*i)},
			{Name: "dataset_characteristics", Value: fmt.Sprint("shape-", i)},
			{Name: "job_parameters", Value: fmt.Sprint("--iterations ", 10+i)},
			{Name: "node_type", Value: fmt.Sprint("m", i, ".xlarge")},
		}
		s.Optional = []encoding.Property{
			{Name: "memory_mb", Value: fmt.Sprint(1024 + i), Optional: true},
			{Name: "cpu_cores", Value: fmt.Sprint(100 + i), Optional: true},
			{Name: "job_name", Value: fmt.Sprint("job-", i), Optional: true},
		}
	}
	return out
}

// TestDistinctRowStepMatchesPerOccurrence pins the distinct-row engine
// against the per-occurrence oracle: predictions, both losses and every
// parameter gradient agree to closeTo's bound (the two differ in
// summation order only), with dropout off and with dropout on under identical masks, on
// a batch with heavy repeats, one where no value repeats, and one whose
// samples leave optional slots empty.
func TestDistinctRowStepMatchesPerOccurrence(t *testing.T) {
	repeats := syntheticSamples(3, []int{2, 4, 6, 8})
	sparse := syntheticSamples(3, []int{2, 4, 6})
	for i := range sparse {
		sparse[i].Optional = sparse[i].Optional[:i%4%3] // 0, 1 or 2 of 3
	}
	for _, tc := range []struct {
		name    string
		samples []Sample
	}{{"repeats", repeats}, {"all-distinct", distinctSamples(9)}, {"empty-slots", sparse}} {
		for _, dropout := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("%s/dropout=%v", tc.name, dropout), func(t *testing.T) {
				cfg := allocConfig()
				cfg.Dropout = dropout
				cfg.GradClipNorm = 0
				build := func() *Model {
					m, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Two epochs of the same deterministic training leave
					// both models with equal weights, scalers and rng state.
					if _, err := m.Pretrain(tc.samples); err != nil {
						t.Fatal(err)
					}
					return m
				}
				got, want := build(), build()

				wantPred, wantLoss, wantRecon := referenceStep(want, tc.samples, true)
				loss, recon := stepGrads(got, got.pretrainRun(tc.samples), allOf(tc.samples))
				if u := got.trainB.props.Rows; tc.name == "all-distinct" && u != len(got.trainB.propRow) {
					t.Fatalf("batch holds %d distinct rows for %d all-different slots", u, len(got.trainB.propRow))
				} else if tc.name == "repeats" && u != 11 {
					t.Fatalf("batch holds %d distinct rows, want the corpus's 11 values", u)
				}
				closeTo(t, "runtime loss", loss, wantLoss)
				closeTo(t, "reconstruction loss", recon, wantRecon)
				for i, p := range got.fst.pred.Data {
					closeTo(t, fmt.Sprintf("training-mode prediction %d", i), float64(p), wantPred[i])
				}
				wp := want.Params()
				for k, p := range got.Params() {
					for i, g := range p.Grad.Data {
						closeTo(t, fmt.Sprintf("%s grad[%d]", p.Name, i), float64(g), float64(wp[k].Grad.Data[i]))
					}
				}

				// Eval mode: the whole encoder on the distinct rows.
				evalPred, _, _ := referenceStep(want, tc.samples, false)
				st := got.forward(&got.trainB, false)
				for i, p := range st.pred.Data {
					closeTo(t, fmt.Sprintf("eval-mode prediction %d", i), float64(p), evalPred[i])
				}
			})
		}
	}
}

// closeTo holds a result of the engine to its oracle, which computes the
// same float32 arithmetic in another summation order: to 1e-6 (absolute,
// plus relative), a few float32 ulps of the deepest sum (1e-12 when the
// network computed in float64).
func closeTo(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("%s = %v, the per-occurrence oracle gives %v", what, got, want)
	}
}

// TestFinetuneStepsRunWithoutDropout: the paper applies alpha-dropout in
// pre-training only, and early stopping is driven by a dropout-free MAE,
// so a fine-tune step must see the same clean codes. On a model built
// with heavy dropout the first step's Huber loss equals the eval-mode
// loss on the same batch.
func TestFinetuneStepsRunWithoutDropout(t *testing.T) {
	cfg := testConfig()
	cfg.Dropout = 0.5
	cfg.PretrainEpochs = 5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pretrain(syntheticSamples(3, []int{2, 4, 6, 8})); err != nil {
		t.Fatal(err)
	}
	ctx := syntheticSamples(1, []int{2, 4, 8, 12})
	var b batch
	m.fillBatch(&b, ctx, nil)
	st := m.forward(&b, false)
	want, _ := nn.HuberLoss{Delta: cfg.HuberDelta}.Compute(nil, st.pred, b.targets)

	rep, err := m.Finetune(ctx, FinetuneOptions{MaxEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalRuntimeLoss != want {
		t.Fatalf("first fine-tune step's loss = %v, eval-mode loss on the same batch = %v", rep.FinalRuntimeLoss, want)
	}
}

// TestPretrainSameSeedSameModel: two pre-training runs from one seed
// save the same bytes.
func TestPretrainSameSeedSameModel(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainEpochs = 8
	cfg.BatchSize = 8 // several batches per epoch, with different distinct sets
	samples := syntheticSamples(4, []int{2, 4, 6, 8, 10})
	var runs [2]*Model
	for i := range runs {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Pretrain(samples); err != nil {
			t.Fatal(err)
		}
		runs[i] = m
	}
	sameModel(t, runs[0], runs[1])
}

// sameModel fails the test unless a and b save the same bytes: the same
// config, bit-identical parameters, normalizer and target scale.
func sameModel(t *testing.T, a, b *Model) {
	t.Helper()
	ab, bb := a.encode(), b.encode()
	if bytes.Equal(ab, bb) {
		return
	}
	other := b.Params()
	for k, p := range a.Params() {
		for i, v := range p.Value.Data {
			if math.Float32bits(v) != math.Float32bits(other[k].Value.Data[i]) {
				t.Fatalf("saved models differ: %s[%d] = %v in one run, %v in the other", p.Name, i, v, other[k].Value.Data[i])
			}
		}
	}
	t.Fatalf("saved models differ outside the parameters (%d and %d bytes)", len(ab), len(bb))
}

// TestRowTableGenerationWrap: a slot written 2^32 calls ago carries the
// generation the counter comes round to; the wrap clears the slots so
// that it is not taken for a value of the current call.
func TestRowTableGenerationWrap(t *testing.T) {
	var tb rowTable
	tb.rowOf("a", 0)
	tb.reset()
	tb.gen = ^uint32(0)
	tb.reset()
	if tb.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", tb.gen)
	}
	if r, seen := tb.rowOf("a", 3); seen || r != 3 {
		t.Fatalf("rowOf after the wrap = %d, seen %v: a value of an earlier call was found", r, seen)
	}
	if r, seen := tb.rowOf("a", 4); !seen || r != 3 {
		t.Fatalf("second rowOf in the call = %d, seen %v, want row 3", r, seen)
	}
}
