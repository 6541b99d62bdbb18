package core

import (
	"fmt"
	"time"

	"repro/internal/nn"
)

// Strategy selects how a (pre-trained) model is adapted to a concrete
// context, covering both the standard fine-tuning of §IV-C1 and the
// cross-environment reuse strategies of §IV-C2.
type Strategy int

const (
	// StrategyPartialUnfreeze adapts z first and unfreezes f after a
	// sample-count dependent number of epochs — the paper's default
	// fine-tuning procedure.
	StrategyPartialUnfreeze Strategy = iota
	// StrategyFullUnfreeze adapts f and z from the start.
	StrategyFullUnfreeze
	// StrategyPartialReset re-initializes z, then fine-tunes.
	StrategyPartialReset
	// StrategyFullReset re-initializes both f and z, deriving a fresh
	// understanding of the scale-out behaviour.
	StrategyFullReset
	// StrategyLocal trains f and z from scratch on the context data
	// without any pre-training; the auto-encoder stays untrained
	// (its random codes are constant within a single context).
	StrategyLocal
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyPartialUnfreeze:
		return "partial-unfreeze"
	case StrategyFullUnfreeze:
		return "full-unfreeze"
	case StrategyPartialReset:
		return "partial-reset"
	case StrategyFullReset:
		return "full-reset"
	case StrategyLocal:
		return "local"
	default:
		return "unknown"
	}
}

// FinetuneOptions tunes the adaptation loop.
type FinetuneOptions struct {
	Strategy Strategy
	// MaxEpochs overrides Config.FinetuneEpochs when positive.
	MaxEpochs int
	// Patience overrides Config.FinetunePatience when positive.
	Patience int
}

// Finetune adapts the model to the samples of one concrete context
// (paper step 2). In every strategy the auto-encoder parameters are
// frozen and dropout is off (the paper uses alpha-dropout in
// pre-training only), so the codes of the context's properties are
// computed once, before the first epoch, and every epoch trains and
// evaluates on the same clean codes. The learning rate follows cyclical
// annealing; training stops early once the runtime MAE in seconds
// reaches the target or stalls. The best model state (smallest MAE) is
// restored before returning.
func (m *Model) Finetune(samples []Sample, opts FinetuneOptions) (*TrainReport, error) {
	if err := validateSamples(m.Cfg, samples); err != nil {
		return nil, err
	}
	start := time.Now()
	cfg := m.Cfg

	maxEpochs := cfg.FinetuneEpochs
	if opts.MaxEpochs > 0 {
		maxEpochs = opts.MaxEpochs
	}
	patience := cfg.FinetunePatience
	if opts.Patience > 0 {
		patience = opts.Patience
	}

	// The local strategy has no pre-training to inherit normalization
	// bounds from; determine them from the context data. Reused models
	// keep their pre-trained bounds and target scale (§IV-A).
	if opts.Strategy == StrategyLocal || !m.norm.Fitted() {
		feats := make([][]float64, len(samples))
		runtimes := make([]float64, len(samples))
		for i, s := range samples {
			feats[i] = ScaleOutFeatures(s.ScaleOut)
			runtimes[i] = s.RuntimeSec
		}
		m.norm = FitMinMax(feats)
		m.target = FitTargetScaler(runtimes)
	}

	m.applyStrategy(opts.Strategy, len(samples))
	m.borrowScratch()
	defer m.releaseScratch()

	// Establish the fused-step invariant (gradients zero before the
	// first backward pass), whatever ran on this model before.
	m.slab.ZeroGrads()
	opt := nn.NewAdam(cfg.FinetuneLRHigh, cfg.FinetuneWeightDecay)
	sched := nn.CyclicalLR{Low: cfg.FinetuneLRLow, High: cfg.FinetuneLRHigh}
	run := &trainRun{opt: opt, huber: nn.HuberLoss{Delta: cfg.HuberDelta}}
	stopper := nn.NewEarlyStopper(cfg.FinetuneTargetMAE, patience)

	unfreezeEpoch := cfg.UnfreezeAfterPerSample * len(samples)
	report := &TrainReport{Shards: 1}
	var bestState *nn.State

	// One context batch serves both the training steps and the per-epoch
	// MAE evaluation: fine-tuning is full-batch, so the encoded samples
	// never change across epochs — and every step runs on it whole.
	m.fillBatch(&m.trainB, samples, nil)
	b := &m.trainB
	m.fixCodes(b)
	report.PropertyRows, report.DistinctProperties = b.propertyCounts(cfg)
	for epoch := 0; epoch < maxEpochs; epoch++ {
		if opts.Strategy == StrategyPartialUnfreeze || opts.Strategy == StrategyPartialReset {
			if epoch == unfreezeEpoch {
				nn.Freeze(m.params.f, false)
			}
		}
		opt.SetLR(sched.Rate(epoch))

		rLoss, _ := m.trainStep(run, nil)

		report.FinalRuntimeLoss = rLoss
		report.Epochs = epoch + 1

		mae := m.evalMAEBatch(b)
		improved, stop := stopper.Observe(epoch, mae)
		if improved {
			bestState = nn.CaptureStateInto(bestState, m.slab)
		}
		if stop {
			break
		}
	}
	if bestState != nil {
		if err := nn.RestoreState(m.slab, bestState); err != nil {
			return nil, fmt.Errorf("core: restoring best fine-tuning state: %w", err)
		}
	}
	report.BestMAE, report.BestEpoch = stopper.Best()
	report.Duration = time.Since(start)
	m.finetuneSamples = len(samples)
	return report, nil
}

// applyStrategy configures freezing and re-initialization per strategy.
// In all strategies the auto-encoder (g, h) is frozen (§IV-C2: "the
// parameters of our auto-encoder are not subject to changes").
func (m *Model) applyStrategy(s Strategy, numSamples int) {
	nn.Freeze(m.params.g, true)
	nn.Freeze(m.params.h, true)
	switch s {
	case StrategyPartialUnfreeze:
		nn.Freeze(m.params.f, true) // unfrozen later
		nn.Freeze(m.params.z, false)
	case StrategyFullUnfreeze, StrategyLocal:
		nn.Freeze(m.params.f, false)
		nn.Freeze(m.params.z, false)
	case StrategyPartialReset:
		m.reinit(m.params.z)
		nn.Freeze(m.params.f, true) // unfrozen later
		nn.Freeze(m.params.z, false)
	case StrategyFullReset:
		m.reinit(m.params.f)
		m.reinit(m.params.z)
		nn.Freeze(m.params.f, false)
		nn.Freeze(m.params.z, false)
	default:
		panic("core: unknown strategy")
	}
}

// reinit redraws the weights of one component's params from the init
// scheme.
func (m *Model) reinit(params []*nn.Param) {
	for _, p := range params {
		if p.Value.Rows == 1 { // bias row vector
			p.Value.Zero()
			continue
		}
		nn.InitDense(p.Value, m.Cfg.Init, m.rng.Rand)
	}
}
