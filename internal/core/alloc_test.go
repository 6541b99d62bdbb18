package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/parallel"
)

// allocConfig is a short pre-training whose 16-sample batches are cut
// into two shards of 8, the smallest step that splits.
func allocConfig() Config {
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 2
	cfg.BatchSize = 16
	return cfg
}

// TestTrainStepZeroAlloc pins the steady-state training step — batch
// refill from the shuffled index, forward, joint loss, backward on each
// of two shards, gradient reduction, clip, Adam step — at zero
// allocations, with the second shard on the caller and on a leased
// helper. This is the central guarantee of the arena-backed compute
// engine. Each shard takes its arena the way Pretrain does.
func TestTrainStepZeroAlloc(t *testing.T) {
	cfg := allocConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(4, []int{2, 4, 6, 8})
	// Pretrain fits the scalers and warms every buffer shape (train
	// batches, eval batch, Adam moments, the pooled arenas).
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}

	run := m.pretrainRun(samples)
	borrowRun(t, m, run)
	idx := make([]int, cfg.BatchSize)
	for i := range idx {
		idx[i] = i % len(samples)
	}
	step := func() { m.trainStep(run, idx) }
	step() // warm the fresh optimizer's moment maps
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("steady-state train step allocs/op = %v, want 0", allocs)
	}
	if run.splitSteps != 52 || run.helperSteps != 0 {
		t.Fatalf("%d split steps, %d of them on a helper; want 52 on the caller", run.splitSteps, run.helperSteps)
	}

	// With a helper the count is taken by hand: AllocsPerRun measures at
	// GOMAXPROCS=1, where a helper never gets to a shard before the
	// caller is back for it. Even at 2 a helper wins a step's second
	// shard only when its thread is running when the step starts, so
	// the test steps until it has won one (a helper that never runs is a
	// failure, not a slow pass), then counts a fixed number of steps,
	// whoever runs their shards.
	setProcs(t, 2)
	if run.helper = parallel.Lease(); run.helper == nil {
		t.Fatal("no helper to lease at GOMAXPROCS=2")
	}
	defer run.helper.Release()
	for deadline := time.Now().Add(10 * time.Second); run.helperSteps == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("none of %d steps in 10s ran its second shard on the leased helper", run.splitSteps-52)
		}
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	// The count is the whole process's, and a goroutine that parks may
	// cost the runtime an allocation; what is pinned is that no step
	// allocates as a matter of course.
	if allocs := after.Mallocs - before.Mallocs; allocs >= 10 {
		t.Fatalf("200 steady-state train steps with a helper made %d allocations, want (next to) none", allocs)
	}
}

// borrowRun takes arenas for m and for the replica of run the way
// Pretrain does, given back when the test ends.
func borrowRun(t *testing.T, m *Model, run *trainRun) {
	m.borrowScratch()
	t.Cleanup(m.releaseScratch)
	if run.second != nil {
		run.second.borrowScratch()
		t.Cleanup(run.second.releaseScratch)
	}
}

// TestPretrainEpochZeroAlloc pins a pre-training epoch — split training
// steps with alpha-dropout on, then the full-corpus evaluation, whose
// dropout layers are the identity — at zero allocations: the eval pass
// must not cost the next step its dropout buffers.
func TestPretrainEpochZeroAlloc(t *testing.T) {
	cfg := allocConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(4, []int{2, 4, 6, 8})
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	run := m.pretrainRun(samples)
	borrowRun(t, m, run)
	m.fillBatch(&m.evalB, samples, nil)
	idx := allOf(samples)
	epoch := func() {
		m.trainStep(run, idx[:8])
		m.trainStep(run, idx)
		m.evalMAEBatch(&m.evalB)
	}
	epoch() // warm the fresh optimizer's moment maps
	if allocs := testing.AllocsPerRun(50, epoch); allocs != 0 {
		t.Fatalf("pre-training epoch allocs/op = %v, want 0", allocs)
	}
}

// TestEvalZeroAlloc pins the per-epoch full-corpus evaluation at zero
// allocations once the eval batch is built, on an arena taken the way
// Pretrain takes it.
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
	m.borrowScratch()
	defer m.releaseScratch()
	if allocs := testing.AllocsPerRun(50, func() { m.evalMAEBatch(&m.evalB) }); allocs != 0 {
		t.Fatalf("eval allocs/op = %v, want 0", allocs)
	}
}

// TestFinetuneEpochZeroAlloc pins one fine-tuning epoch — a dropout-free
// step on the codes fixed before the loop, then the MAE evaluation on
// the same batch — at zero allocations, on an arena taken the way
// Finetune takes it.
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
	run := &trainRun{
		params: m.Params(),
		opt:    nn.NewAdam(cfg.FinetuneLRHigh, cfg.FinetuneWeightDecay),
		huber:  nn.HuberLoss{Delta: cfg.HuberDelta},
	}
	m.fillBatch(&m.trainB, ctx, nil)
	m.borrowScratch()
	defer m.releaseScratch()
	m.fixCodes(&m.trainB)
	epoch := func() {
		m.trainStep(run, nil)
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
