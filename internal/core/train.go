package core

import (
	"fmt"
	"time"

	"repro/internal/mat"
	"repro/internal/nn"
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
}

// countProperties fills the property counts of a report from the batch
// holding the whole sample set.
func (r *TrainReport) countProperties(cfg Config, b *batch) {
	r.DistinctProperties = b.props.Rows
	padded := false
	for _, n := range b.numOpt {
		r.PropertyRows += cfg.NumEssential + n
		padded = padded || n < cfg.NumOptional
	}
	if padded {
		r.DistinctProperties-- // the all-zero row of missing slots is not a value
	}
}

// Pretrain trains the full architecture jointly on a cross-context corpus
// (paper step 1): Huber runtime loss plus MSE reconstruction loss, Adam
// with weight decay, alpha-dropout active. Feature normalization bounds
// and the target scale are determined here and reused for all later
// fine-tuning and inference.
//
// The epoch loop is allocation-free in steady state: mini-batches are
// sliced from the shuffled index without copying samples, the
// full-corpus evaluation batch is built once before the loop, and every
// forward/backward intermediate comes from the model workspace.
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

	params := m.Params()
	nn.Freeze(params, false)
	// Establish the fused-step invariant (gradients zero before the
	// first backward pass), whatever ran on this model before.
	nn.ZeroGrads(params)
	opt := nn.NewAdam(m.Cfg.LearningRate, m.Cfg.WeightDecay)
	huber := nn.HuberLoss{Delta: m.Cfg.HuberDelta}

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}

	// The evaluation batch depends only on samples and the (now fixed)
	// scalers; build it once instead of per epoch.
	m.fillBatch(&m.evalB, samples, nil)

	best := nn.NewEarlyStopper(0, 0) // track best only; no early stop in pre-training
	var bestState nn.State
	report := &TrainReport{}
	report.countProperties(m.Cfg, &m.evalB)

	for epoch := 0; epoch < m.Cfg.PretrainEpochs; epoch++ {
		m.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochRuntime, epochRecon float64
		var batches int
		for lo := 0; lo < len(idx); lo += m.Cfg.BatchSize {
			hi := lo + m.Cfg.BatchSize
			if hi > len(idx) {
				hi = len(idx)
			}
			m.fillBatch(&m.trainB, samples, idx[lo:hi])
			rLoss, reconLoss := m.trainStep(&m.trainB, params, opt, huber, true)
			epochRuntime += rLoss
			epochRecon += reconLoss
			batches++
		}
		report.FinalRuntimeLoss = epochRuntime / float64(batches)
		report.FinalReconLoss = epochRecon / float64(batches)
		report.Epochs = epoch + 1

		// Track the best state by full-corpus MAE in seconds.
		mae := m.evalMAEBatch(&m.evalB)
		if improved, _ := best.Observe(epoch, mae); improved {
			bestState = nn.CaptureStateInto(bestState, params)
		}
	}
	if bestState != nil {
		if err := nn.RestoreState(params, bestState); err != nil {
			return nil, fmt.Errorf("core: restoring best pre-training state: %w", err)
		}
	}
	report.BestMAE, report.BestEpoch = best.Best()
	report.Duration = time.Since(start)
	m.pretrained = true
	return report, nil
}

// trainStep runs one optimization step on an already-filled batch:
// forward, joint loss, backward, gradient clip, optimizer step. It is
// the zero-allocation hot path of training (pinned by
// TestTrainStepZeroAlloc). pretrain selects the forward mode: dropout
// and the reconstruction term belong to pre-training only.
//
// With a fused optimizer (Adam), clipping, the update, and gradient
// zeroing collapse into StepClipZero's single sweep; gradients are
// then already zero when the next step's backward pass accumulates.
// Unfused optimizers take the classic ZeroGrads/GradClip/Step path.
func (m *Model) trainStep(b *batch, params []*nn.Param, opt nn.Optimizer, huber nn.HuberLoss, pretrain bool) (rLoss, reconLoss float64) {
	st := m.forward(b, pretrain)

	fused, isFused := opt.(nn.FusedStepper)
	if !isFused {
		nn.ZeroGrads(params)
	}
	rLoss, rGrad := huber.Compute(m.ws, st.pred, b.targets)
	var reconGrad *mat.Dense
	if st.recon != nil {
		reconLoss, reconGrad = nn.MSELoss{}.ComputeRows(m.ws, st.recon, b.props, b.propRow)
		if m.Cfg.ReconWeight != 1 {
			mat.ScaleTo(reconGrad, m.Cfg.ReconWeight, reconGrad)
		}
	}
	m.backward(st, rGrad, reconGrad)
	if isFused {
		fused.StepClipZero(params, m.Cfg.GradClipNorm)
	} else {
		nn.GradClip(params, m.Cfg.GradClipNorm)
		opt.Step(params)
	}
	return rLoss, reconLoss
}

// evalMAE computes the runtime MAE in seconds over samples with the model
// in eval mode.
func (m *Model) evalMAE(samples []Sample) float64 {
	m.fillBatch(&m.evalB, samples, nil)
	return m.evalMAEBatch(&m.evalB)
}

// evalMAEBatch computes the runtime MAE in seconds over an
// already-filled batch.
func (m *Model) evalMAEBatch(b *batch) float64 {
	st := m.forward(b, false)
	var sum float64
	for i, r := range b.runtimes {
		pred := m.target.ToSeconds(st.pred.At(i, 0))
		if pred > r {
			sum += pred - r
		} else {
			sum += r - pred
		}
	}
	return sum / float64(len(b.runtimes))
}
