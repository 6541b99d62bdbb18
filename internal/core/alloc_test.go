package core

import (
	"testing"

	"repro/internal/nn"
)

// allocConfig keeps every matmul of the step below mat's parallel
// threshold so the measured path is fully deterministic (the shared
// worker pool uses a sync.Pool, which the GC may clear mid-measurement).
func allocConfig() Config {
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 2
	cfg.BatchSize = 16
	return cfg
}

// TestTrainStepZeroAlloc pins the steady-state training step — batch
// refill from the shuffled index, forward, joint loss, backward,
// gradient clip, Adam step — at zero allocations. This is the central
// guarantee of the workspace-backed compute engine.
func TestTrainStepZeroAlloc(t *testing.T) {
	cfg := allocConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(4, []int{2, 4, 6, 8})
	// Pretrain fits the scalers and warms every buffer shape (train
	// batches, eval batch, Adam moments, workspace arena).
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}

	params := m.Params()
	opt := nn.NewAdam(cfg.LearningRate, cfg.WeightDecay)
	huber := nn.HuberLoss{Delta: cfg.HuberDelta}
	idx := make([]int, cfg.BatchSize)
	for i := range idx {
		idx[i] = i % len(samples)
	}
	step := func() {
		m.fillBatch(&m.trainB, samples, idx)
		m.trainStep(&m.trainB, params, opt, huber, true)
	}
	step() // warm the fresh optimizer's moment maps
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("steady-state train step allocs/op = %v, want 0", allocs)
	}
}

// TestEvalZeroAlloc pins the per-epoch full-corpus evaluation at zero
// allocations once the eval batch is built.
func TestEvalZeroAlloc(t *testing.T) {
	m, err := New(allocConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(4, []int{2, 4, 6, 8})
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	m.fillBatch(&m.evalB, samples, nil)
	if allocs := testing.AllocsPerRun(50, func() { m.evalMAEBatch(&m.evalB) }); allocs != 0 {
		t.Fatalf("eval allocs/op = %v, want 0", allocs)
	}
}

// TestFinetuneEpochZeroAlloc pins one fine-tuning epoch — a dropout-free
// step on the codes fixed before the loop, then the MAE evaluation on
// the same batch — at zero allocations.
func TestFinetuneEpochZeroAlloc(t *testing.T) {
	cfg := allocConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pretrain(syntheticSamples(4, []int{2, 4, 6, 8})); err != nil {
		t.Fatal(err)
	}
	ctx := syntheticSamples(1, []int{2, 4, 6, 8})
	// A short Finetune applies the freeze schedule and warms every shape.
	if _, err := m.Finetune(ctx, FinetuneOptions{MaxEpochs: 2}); err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	opt := nn.NewAdam(cfg.FinetuneLRHigh, cfg.FinetuneWeightDecay)
	huber := nn.HuberLoss{Delta: cfg.HuberDelta}
	m.fillBatch(&m.trainB, ctx, nil)
	m.fixCodes(&m.trainB)
	epoch := func() {
		m.trainStep(&m.trainB, params, opt, huber, false)
		m.evalMAEBatch(&m.trainB)
	}
	epoch() // warm the fresh optimizer's moment maps
	if allocs := testing.AllocsPerRun(50, epoch); allocs != 0 {
		t.Fatalf("fine-tune epoch allocs/op = %v, want 0", allocs)
	}
}

// TestPredictBatchZeroAlloc pins warm batched inference (the serving
// fast path) at zero allocations: once a batch shape and its property
// values have been seen, PredictBatchInto touches only model-owned
// buffers.
func TestPredictBatchZeroAlloc(t *testing.T) {
	m, err := New(allocConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(2, []int{2, 4, 6, 8})
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	queries := make([]Query, 16)
	for i := range queries {
		s := samples[i%len(samples)]
		queries[i] = Query{ScaleOut: s.ScaleOut, Essential: s.Essential, Optional: s.Optional}
	}
	dst := make([]float64, len(queries))
	if err := m.PredictBatchInto(dst, queries); err != nil { // warm shapes + encoder memo
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := m.PredictBatchInto(dst, queries); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm PredictBatchInto allocs/op = %v, want 0", allocs)
	}

	// The single-query convenience path rides the same machinery.
	s := samples[0]
	if _, err := m.Predict(s.ScaleOut, s.Essential, s.Optional); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Predict(s.ScaleOut, s.Essential, s.Optional); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Predict allocs/op = %v, want 0", allocs)
	}
}
