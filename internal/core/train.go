package core

import (
	"fmt"
	"time"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// TrainReport summarizes a training run.
type TrainReport struct {
	// Epochs is the number of epochs actually executed.
	Epochs int
	// BestMAE is the best runtime MAE in seconds seen during training.
	BestMAE float64
	// BestEpoch is the epoch at which BestMAE occurred.
	BestEpoch int
	// FinalRuntimeLoss and FinalReconLoss are the last epoch's mean
	// losses (scaled space).
	FinalRuntimeLoss float64
	FinalReconLoss   float64
	// Duration is the wall-clock training time.
	Duration time.Duration
	// PropertyRows is the number of property values the samples carry
	// and DistinctProperties how many different ones those are. The
	// encoder's first layer runs once per distinct value of a batch, so
	// their ratio says how much of the encoder's work the corpus lets
	// training skip.
	PropertyRows       int
	DistinctProperties int
	// Shards is the number of shards the run's full mini-batches were
	// cut into: 2 in pre-training, 1 when the batch size is below the
	// split minimum and in fine-tuning. SplitSteps counts the steps that
	// were cut and HelperSteps those of them whose second shard ran on a
	// leased helper goroutine, concurrently with the first; the rest ran
	// both shards on the caller, because every core was taken (nested
	// under parallel trials, or GOMAXPROCS=1) or because the helper's
	// core was busy elsewhere when the step needed it. Same result,
	// half the speed.
	Shards      int
	SplitSteps  int
	HelperSteps int
	// ScratchBytes is the workspace high-water of the run: the largest
	// forward(+backward) pass, or the corpus evaluation, each shard
	// ran in its arena, summed over the shards.
	ScratchBytes int
}

// propertyCounts reports how many property values the batch's samples
// carry and how many different ones those are.
func (b *batch) propertyCounts(cfg Config) (rows, distinct int) {
	distinct = b.props.Rows
	padded := false
	for _, n := range b.numOpt {
		rows += cfg.NumEssential + n
		padded = padded || n < cfg.NumOptional
	}
	if padded {
		distinct-- // the all-zero row of missing slots is not a value
	}
	return rows, distinct
}

// Pretrain trains the full architecture jointly on a cross-context corpus
// (paper step 1): Huber runtime loss plus MSE reconstruction loss, Adam
// with weight decay, alpha-dropout active. Feature normalization bounds
// and the target scale are determined here and reused for all later
// fine-tuning and inference.
//
// Every step is data-parallel over two shards of its mini-batch (see
// trainStep); the second shard runs on a helper goroutine leased for
// the length of this call when a core is free, and on the caller when
// none is. The trained parameters are the same bytes either way: they
// depend on the samples and Config.Seed, never on GOMAXPROCS or on what
// else the process is running. The two shards share the model's weight
// slab and accumulate into gradient slabs of their own (nn.Slab), so
// the gradients one core writes never share a cache line with the
// weights the other reads, or with the other's gradients; the best
// epoch's weights are kept as one copy of the weight slab.
//
// The corpus is encoded once, before the loop (corpusTable): a step
// gathers its shards' rows from the table, and each epoch's evaluation
// runs the network once per distinct input. The epoch loop is
// allocation-free in steady state: mini-batches are sliced from the
// shuffled index without copying samples, and every forward/backward
// intermediate comes from the arena each shard borrows for the call.
func (m *Model) Pretrain(samples []Sample) (*TrainReport, error) {
	if err := validateSamples(m.Cfg, samples); err != nil {
		return nil, err
	}
	start := time.Now()

	// Determine normalization bounds from the corpus (§IV-A).
	feats := make([][]float64, len(samples))
	runtimes := make([]float64, len(samples))
	for i, s := range samples {
		feats[i] = ScaleOutFeatures(s.ScaleOut)
		runtimes[i] = s.RuntimeSec
	}
	m.norm = FitMinMax(feats)
	m.target = FitTargetScaler(runtimes)

	run := m.pretrainRun(samples)
	m.borrowScratch()
	defer m.releaseScratch()
	if run.second != nil {
		run.second.borrowScratch()
		defer run.second.releaseScratch()
	}

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}

	best := nn.NewEarlyStopper(0, 0) // track best only; no early stop in pre-training
	var bestState *nn.State
	report := &TrainReport{Shards: 1}
	report.PropertyRows, report.DistinctProperties = m.corpus.samples.propertyCounts(m.Cfg)

	if run.second != nil {
		report.Shards = 2
		run.helper = parallel.Lease()
		defer run.helper.Release()
	}
	for epoch := 0; epoch < m.Cfg.PretrainEpochs; epoch++ {
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochRuntime, epochRecon float64
		var batches int
		for lo := 0; lo < len(idx); lo += m.Cfg.BatchSize {
			hi := min(lo+m.Cfg.BatchSize, len(idx))
			rLoss, reconLoss := m.trainStep(run, idx[lo:hi])
			epochRuntime += rLoss
			epochRecon += reconLoss
			batches++
		}
		report.FinalRuntimeLoss = epochRuntime / float64(batches)
		report.FinalReconLoss = epochRecon / float64(batches)
		report.Epochs = epoch + 1

		// Track the best state by full-corpus MAE in seconds.
		mae := m.evalMAE(&m.corpus)
		if improved, _ := best.Observe(epoch, mae); improved {
			bestState = nn.CaptureStateInto(bestState, m.slab)
		}
	}
	if bestState != nil {
		if err := nn.RestoreState(m.slab, bestState); err != nil {
			return nil, fmt.Errorf("core: restoring best pre-training state: %w", err)
		}
	}
	report.BestMAE, report.BestEpoch = best.Best()
	report.SplitSteps, report.HelperSteps = run.splitSteps, run.helperSteps
	m.noteRound()
	report.ScratchBytes = m.scratchPeak
	if run.second != nil {
		run.second.noteRound()
		report.ScratchBytes += run.second.scratchPeak
	}
	report.Duration = time.Since(start)
	m.pretrained = true
	return report, nil
}

// minShardSamples is the fewest samples a shard of a split step holds.
// Below it a shard's products are a few microseconds each and the
// step's fixed costs (two passes' worth of layer calls, the reduction)
// outweigh what the second core returns.
const minShardSamples = 8

// shardCut says where a mini-batch of n samples is cut in two: the
// first shard takes samples [0, cut), the second [cut, n). It is a
// function of n alone — never of the machine — which is half of what
// makes training reproducible; cut == n means the batch stays whole.
func shardCut(n int) int {
	if n < 2*minShardSamples {
		return n
	}
	return (n + 1) / 2
}

// pretrainRun prepares pre-training steps on samples with the scalers
// the model has now: the corpus encoded into the model's table, every
// parameter trainable, gradients zero, a fresh Adam, and — when a full
// mini-batch is large enough to cut — the replica its second shard runs
// on, built on first use. It leases no helper; until the caller does,
// the steps run both shards themselves.
func (m *Model) pretrainRun(samples []Sample) *trainRun {
	m.corpus.encode(m, samples)
	nn.Freeze(m.slab.Params(), false)
	// Establish the fused-step invariant (gradients zero before the
	// first backward pass), whatever ran on this model before.
	m.slab.ZeroGrads()
	run := &trainRun{
		corpus: &m.corpus.samples,
		opt:    nn.NewAdam(m.Cfg.LearningRate, m.Cfg.WeightDecay),
		huber:  nn.HuberLoss{Delta: m.Cfg.HuberDelta},
	}
	if full := min(m.Cfg.BatchSize, len(samples)); shardCut(full) < full {
		if m.second == nil {
			m.second = m.replica(1)
			m.second.pass.fn = m.second.runPass
		}
		m.second.norm, m.second.target = m.norm, m.target
		run.second = m.second
	}
	return run
}

// trainRun is what the steps of one Pretrain call share.
type trainRun struct {
	corpus *batch // the encoded samples the steps' indices select from
	opt    *nn.Adam
	huber  nn.HuberLoss

	// second runs the second shard of a split step, on helper when one
	// was leased and on the caller otherwise; nil when no batch of the
	// run splits.
	second *Model
	helper *parallel.Helper

	splitSteps, helperSteps int
}

// gradPass is one shard's share of a step: its slice of the mini-batch
// in, its mean losses out (its gradient lands in its parameters' Grad).
type gradPass struct {
	run              *trainRun
	idx              []int
	rLoss, reconLoss float64
	fn               func() // runPass, bound once: handing it to a helper allocates nothing
}

// runPass gathers the shard's samples from the corpus table and runs
// forward with alpha-dropout on, joint loss and backward on them. It
// touches nothing another shard's pass touches except the parameter
// values and the table, which both only read.
func (m *Model) runPass() {
	p, b := &m.pass, &m.trainB
	m.gatherBatch(b, p.run.corpus, p.idx)
	st := m.forward(b, true)
	var rGrad, reconGrad *mat.DenseF32
	p.rLoss, rGrad = p.run.huber.Compute(m.ws, st.pred, b.targets)
	p.reconLoss = 0
	if m.Cfg.ReconWeight > 0 {
		p.reconLoss, reconGrad = m.h.ReconLossRows(m.ws, st.codes, b.props, b.propRow, m.Cfg.ReconWeight)
	}
	m.backward(st, rGrad, reconGrad)
}

// trainStep runs one optimization step: forward, joint loss, backward,
// gradient clip, optimizer step. It is the zero-allocation hot path of
// training (pinned by TestTrainStepZeroAlloc).
//
// idx is the step's mini-batch, as indices into the run's samples;
// shardPasses computes its gradient. One optimizer step then applies
// it: Adam's sweep, one per run of trainable parameters over the
// model's slab and the replica's, sums the shards' gradients weighted
// by their share of the batch, which is the whole batch's gradient up
// to summation order, and forms the clip norm over the sum and the
// update, zeroing both shards' gradients for the next step.
func (m *Model) trainStep(run *trainRun, idx []int) (rLoss, reconLoss float64) {
	rLoss, reconLoss, w1 := m.shardPasses(run, idx)
	if w1 == 0 {
		run.opt.StepShards(m.slab, nil, 1, 0, m.Cfg.GradClipNorm)
	} else {
		run.opt.StepShards(m.slab, run.second.slab, float32(1-w1), float32(w1), m.Cfg.GradClipNorm)
	}
	return rLoss, reconLoss
}

// shardPasses runs the passes of one training step and returns its
// losses and the second shard's share of the batch, 0 when the batch
// was not cut. idx is cut in two at shardCut; each shard gathers its
// samples and runs its pass on its own replica of everything a pass
// writes, the second concurrently with the first when the run holds a
// helper and the helper gets to it before the caller is done with the
// first. Each shard's gradient, of the mean loss over its own samples,
// is left in its parameters' Grad. Who ran the second shard changes
// nothing it computes, so neither does it change the result. A batch
// too small to cut is the same loop with one shard.
func (m *Model) shardPasses(run *trainRun, idx []int) (rLoss, reconLoss, w1 float64) {
	n := len(idx)
	cut := shardCut(n)
	first := &m.pass
	first.run, first.idx = run, idx[:cut:cut]
	if cut == n {
		m.runPass()
		rLoss, reconLoss = first.rLoss, first.reconLoss
	} else {
		second := &run.second.pass
		second.run, second.idx = run, idx[cut:]
		run.splitSteps++
		if run.helper != nil {
			run.helper.Start(second.fn)
			m.runPass()
			if run.helper.Wait() {
				run.helperSteps++
			}
		} else {
			m.runPass()
			second.fn()
		}
		w1 = float64(n-cut) / float64(n)
		w0 := 1 - w1
		rLoss = w0*first.rLoss + w1*second.rLoss
		reconLoss = w0*first.reconLoss + w1*second.reconLoss
		second.run, second.idx = nil, nil
	}
	// The model outlives the run; it must not keep the corpus alive.
	first.run, first.idx = nil, nil
	return rLoss, reconLoss, w1
}

// maeSeconds is the mean absolute error in seconds of the scaled
// predictions pred against runtimes, summed in runtimes' order: the
// prediction of sample i is pred[rows[i]], or pred[i] when rows is nil.
func (m *Model) maeSeconds(pred []float32, rows []int32, runtimes []float64) float64 {
	var sum float64
	for i, r := range runtimes {
		j := i
		if rows != nil {
			j = int(rows[i])
		}
		p := m.target.ToSeconds(float64(pred[j]))
		if p > r {
			sum += p - r
		} else {
			sum += r - p
		}
	}
	return sum / float64(len(runtimes))
}
