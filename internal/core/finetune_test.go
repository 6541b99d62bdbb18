package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
)

// evalMAEBatch is the runtime MAE in seconds over an already-filled
// batch, from a forward pass of its own: the reference the training
// loops' scores are checked against.
func (m *Model) evalMAEBatch(b *batch) float64 {
	st := m.forward(b, false)
	return m.maeSeconds(st.pred.Data, nil, b.runtimes)
}

// finetuneTwoForward is Finetune as a step-then-score loop: each epoch
// runs a forward pass for the step and, after the update, a second one
// to score it. Finetune scores an update with the next epoch's forward
// pass instead; it must stop where this loop stops and leave the same
// bits.
func (m *Model) finetuneTwoForward(samples []Sample, opts FinetuneOptions) (*TrainReport, error) {
	if err := validateSamples(m.Cfg, samples); err != nil {
		return nil, err
	}
	cfg := m.Cfg
	maxEpochs := cfg.FinetuneEpochs
	if opts.MaxEpochs > 0 {
		maxEpochs = opts.MaxEpochs
	}
	patience := cfg.FinetunePatience
	if opts.Patience > 0 {
		patience = opts.Patience
	}
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

	m.slab.ZeroGrads()
	opt := nn.NewAdam(cfg.FinetuneLRHigh, cfg.FinetuneWeightDecay)
	sched := nn.CyclicalLR{Low: cfg.FinetuneLRLow, High: cfg.FinetuneLRHigh}
	huber := nn.HuberLoss{Delta: cfg.HuberDelta}
	stopper := nn.NewEarlyStopper(cfg.FinetuneTargetMAE, patience)
	partial := opts.Strategy == StrategyPartialUnfreeze || opts.Strategy == StrategyPartialReset
	unfreezeEpoch := cfg.UnfreezeAfterPerSample * len(samples)
	report := &TrainReport{Shards: 1}
	var bestState *nn.State

	m.fillBatch(&m.trainB, samples, nil)
	b := &m.trainB
	m.fixCodes(b)
	report.PropertyRows, report.DistinctProperties = b.propertyCounts(cfg)
	for epoch := 0; epoch < maxEpochs; epoch++ {
		if partial && epoch == unfreezeEpoch {
			nn.Freeze(m.params.f, false)
		}
		opt.SetLR(sched.Rate(epoch))
		st := m.forward(b, false)
		loss, grad := huber.Compute(m.ws, st.pred, b.targets)
		m.backward(st, grad, nil)
		opt.StepShards(m.slab, nil, 1, 0, cfg.GradClipNorm)
		report.FinalRuntimeLoss = loss
		report.Epochs = epoch + 1

		improved, stop := stopper.Observe(epoch, m.evalMAEBatch(b))
		if improved {
			bestState = nn.CaptureStateInto(bestState, m.slab)
		}
		if stop {
			break
		}
	}
	if bestState != nil {
		if err := nn.RestoreState(m.slab, bestState); err != nil {
			return nil, err
		}
	}
	report.BestMAE, report.BestEpoch = stopper.Best()
	m.finetuneSamples = len(samples)
	return report, nil
}

// TestFinetuneMatchesTwoForwardLoop: Finetune, one forward pass an
// epoch, stops where the step-then-score loop stops and leaves the same
// weights, bit for bit, and the same report, in every strategy at 1, 3
// and 6 samples. The cases stop on the default 5 s target, on patience
// and at MaxEpochs (1 among them); the test fails unless each of the
// three stops occurs at every sample count.
func TestFinetuneMatchesTwoForwardLoop(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainEpochs = 20
	general, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := general.Pretrain(syntheticSamples(3, []int{2, 4, 6, 8, 10, 12})); err != nil {
		t.Fatal(err)
	}
	// The fourth context is unseen in pre-training. Its noisy copy
	// repeats each scale-out 20 s under and 20 s over the curve, so from
	// two samples on no fit gets its MAE under the target: those runs
	// stop on patience or at MaxEpochs.
	ctx := syntheticSamples(4, []int{2, 4, 6, 8, 10, 12})[18:]
	noisy := make([]Sample, 6)
	for i := range noisy {
		noisy[i] = ctx[i/2]
		noisy[i].RuntimeSec += float64(20 * (i%2*2 - 1))
	}
	strategies := []Strategy{StrategyPartialUnfreeze, StrategyFullUnfreeze, StrategyPartialReset, StrategyFullReset, StrategyLocal}
	cases := []struct {
		name    string
		samples []Sample
		opts    FinetuneOptions
	}{
		{"clean", ctx, FinetuneOptions{}},
		{"clean-one-epoch", ctx, FinetuneOptions{MaxEpochs: 1}},
		{"noisy-patience", noisy, FinetuneOptions{Patience: 4}},
		{"noisy-max-epochs", noisy, FinetuneOptions{MaxEpochs: 12, Patience: 1000}},
	}
	for _, k := range []int{1, 3, 6} {
		stops := map[string]int{}
		for _, tc := range cases {
			for _, s := range strategies {
				opts := tc.opts
				opts.Strategy = s
				samples := tc.samples[:k]
				name := fmt.Sprintf("k=%d/%s/%v", k, tc.name, s)
				got, want := cloneOf(t, general), cloneOf(t, general)
				gotRep, err := got.Finetune(samples, opts)
				if err != nil {
					t.Fatal(err)
				}
				wantRep, err := want.finetuneTwoForward(samples, opts)
				if err != nil {
					t.Fatal(err)
				}
				if gotRep.Epochs != wantRep.Epochs || gotRep.BestEpoch != wantRep.BestEpoch ||
					math.Float64bits(gotRep.BestMAE) != math.Float64bits(wantRep.BestMAE) ||
					math.Float64bits(gotRep.FinalRuntimeLoss) != math.Float64bits(wantRep.FinalRuntimeLoss) {
					t.Fatalf("%s: report epochs %d, best %v at %d, final loss %v; the two-forward loop's %d, %v at %d, %v",
						name, gotRep.Epochs, gotRep.BestMAE, gotRep.BestEpoch, gotRep.FinalRuntimeLoss,
						wantRep.Epochs, wantRep.BestMAE, wantRep.BestEpoch, wantRep.FinalRuntimeLoss)
				}
				sameBits(t, name+": weights", got.slab.Values(), want.slab.Values())
				stops[stopKind(wantRep, want.Cfg, opts)]++
			}
		}
		for _, kind := range []string{"target", "patience", "max-epochs"} {
			if stops[kind] == 0 {
				t.Errorf("k=%d: no run stopped on %s (stops: %v)", k, kind, stops)
			}
		}
	}
}

// cloneOf is a clone of m, failing the test on error.
func cloneOf(t *testing.T, m *Model) *Model {
	t.Helper()
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stopKind says why a fine-tuning run that reported rep stopped.
func stopKind(rep *TrainReport, cfg Config, opts FinetuneOptions) string {
	maxEpochs := cfg.FinetuneEpochs
	if opts.MaxEpochs > 0 {
		maxEpochs = opts.MaxEpochs
	}
	switch {
	case rep.BestMAE <= cfg.FinetuneTargetMAE:
		return "target"
	case rep.Epochs < maxEpochs:
		return "patience"
	default:
		return "max-epochs"
	}
}
