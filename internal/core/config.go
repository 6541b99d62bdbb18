// Package core implements the Bellamy runtime prediction model
// (Scheinert et al., CLUSTER 2021): a neural architecture combining a
// scale-out modeling network f, a property auto-encoder (encoder g,
// decoder h), and a runtime predictor z, trained jointly on a Huber
// runtime loss plus an MSE reconstruction loss. The model supports the
// paper's two-step workflow — pre-training on cross-context corpora and
// fine-tuning on the few samples of a concrete context — as well as the
// reuse strategies evaluated in the cross-environment experiment.
package core

import (
	"fmt"

	"repro/internal/nn"
)

// Config mirrors Table I of the paper plus the architectural dimensions
// fixed in §IV-A.
type Config struct {
	// PropertySize is the vectorized property size N (decoding dim).
	PropertySize int
	// EncodingDim is the code size M produced by the encoder.
	EncodingDim int
	// EncoderHidden is the hidden width of encoder and decoder.
	EncoderHidden int
	// ScaleOutHidden is the hidden width of the scale-out network f.
	ScaleOutHidden int
	// ScaleOutDim is F, the output dimensionality of f.
	ScaleOutDim int
	// PredictorHidden is the hidden width of the final network z.
	PredictorHidden int
	// NumEssential is m, the count of essential properties with
	// dedicated capacity in the combined vector.
	NumEssential int
	// NumOptional is n, the count of optional properties averaged into
	// the shared slot.
	NumOptional int

	// Dropout is the alpha-dropout probability used during pre-training.
	Dropout float64
	// LearningRate is the pre-training Adam learning rate.
	LearningRate float64
	// WeightDecay is the decoupled weight-decay coefficient.
	WeightDecay float64
	// BatchSize bounds the mini-batch size (Table I: 64).
	BatchSize int
	// PretrainEpochs is the pre-training epoch count (Table I: 2500).
	PretrainEpochs int
	// HuberDelta is the runtime-loss transition point (scaled space).
	HuberDelta float64
	// ReconWeight scales the auto-encoder reconstruction term of the
	// joint loss. Zero disables the term (ablation).
	ReconWeight float64
	// GradClipNorm bounds the global gradient norm per step (0 = off).
	GradClipNorm float64

	// FinetuneEpochs caps fine-tuning (Table I: max 2500).
	FinetuneEpochs int
	// FinetunePatience stops fine-tuning after this many epochs without
	// improvement (Table I: 1000).
	FinetunePatience int
	// FinetuneTargetMAE stops fine-tuning when the runtime MAE in
	// seconds drops to or below this value (Table I: 5).
	FinetuneTargetMAE float64
	// FinetuneLRLow/High bound the cyclical annealing schedule
	// (Table I: (1e-3, 1e-2)).
	FinetuneLRLow, FinetuneLRHigh float64
	// FinetuneWeightDecay is the fine-tuning weight decay (Table I: 1e-3).
	FinetuneWeightDecay float64
	// UnfreezeAfterPerSample delays unfreezing f by this many epochs per
	// available data sample ("after a number of epochs dependent on the
	// amount of data samples", §IV-A).
	UnfreezeAfterPerSample int

	// Activation names the hidden activation: "selu" per the paper, or
	// any other name nn.LookupActivation knows ("tanh", "identity").
	Activation string
	// Init selects the weight initialization scheme.
	Init nn.InitScheme
	// Seed drives all weight initialization and batch shuffling.
	Seed int64
}

// DefaultConfig returns the paper's model configuration (Table I with the
// middle of each searched hyperparameter range; the hyperopt package
// searches the full space).
func DefaultConfig() Config {
	return Config{
		PropertySize:    40,
		EncodingDim:     4,
		EncoderHidden:   8,
		ScaleOutHidden:  16,
		ScaleOutDim:     8,
		PredictorHidden: 8,
		NumEssential:    4,
		NumOptional:     3,

		Dropout:        0.10,
		LearningRate:   1e-2,
		WeightDecay:    1e-3,
		BatchSize:      64,
		PretrainEpochs: 2500,
		HuberDelta:     1,
		ReconWeight:    1,
		GradClipNorm:   5,

		FinetuneEpochs:         2500,
		FinetunePatience:       1000,
		FinetuneTargetMAE:      5,
		FinetuneLRLow:          1e-3,
		FinetuneLRHigh:         1e-2,
		FinetuneWeightDecay:    1e-3,
		UnfreezeAfterPerSample: 50,

		Activation: "selu",
		Init:       nn.InitLeCun,
		Seed:       1,
	}
}

// Validate reports the first configuration error found.
func (c Config) Validate() error {
	switch {
	case c.PropertySize < 2:
		return fmt.Errorf("core: PropertySize %d < 2", c.PropertySize)
	case c.EncodingDim <= 0:
		return fmt.Errorf("core: EncodingDim %d <= 0", c.EncodingDim)
	case c.EncodingDim >= c.PropertySize:
		return fmt.Errorf("core: EncodingDim %d must be << PropertySize %d", c.EncodingDim, c.PropertySize)
	case c.ScaleOutDim <= 0:
		return fmt.Errorf("core: ScaleOutDim %d <= 0", c.ScaleOutDim)
	case c.NumEssential <= 0:
		return fmt.Errorf("core: NumEssential %d <= 0", c.NumEssential)
	case c.NumOptional < 0:
		return fmt.Errorf("core: NumOptional %d < 0", c.NumOptional)
	case c.BatchSize <= 0:
		return fmt.Errorf("core: BatchSize %d <= 0", c.BatchSize)
	case c.Dropout < 0 || c.Dropout >= 1:
		return fmt.Errorf("core: Dropout %v outside [0,1)", c.Dropout)
	case c.LearningRate <= 0:
		return fmt.Errorf("core: LearningRate %v <= 0", c.LearningRate)
	}
	if _, ok := nn.LookupActivation(c.Activation); !ok {
		return fmt.Errorf("core: unknown activation %q", c.Activation)
	}
	return nil
}

// CombinedDim is the input width of z: F + (m+1)*M (paper Eq. 5).
func (c Config) CombinedDim() int {
	return c.ScaleOutDim + (c.NumEssential+1)*c.EncodingDim
}
