package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/encoding"
)

// Sample is one training observation for the Bellamy model: a scale-out,
// the descriptive properties of the execution context, and the observed
// runtime in seconds.
type Sample struct {
	ScaleOut   int
	Essential  []encoding.Property
	Optional   []encoding.Property
	RuntimeSec float64
}

// SamplesFromExecutions converts dataset executions into model samples
// using the paper's property selection (essential: dataset size, dataset
// characteristics, job parameters, node type; optional: memory, cores,
// job name).
func SamplesFromExecutions(execs []dataset.Execution) []Sample {
	out := make([]Sample, len(execs))
	for i, e := range execs {
		out[i] = Sample{
			ScaleOut:   e.ScaleOut,
			Essential:  e.Context.EssentialProps(),
			Optional:   e.Context.OptionalProps(),
			RuntimeSec: e.RuntimeSec,
		}
	}
	return out
}

// ValidateSample checks one observation against a model configuration:
// positive scale-out, a positive and finite runtime
// (dataset.CheckRuntime), and property counts the architecture can
// encode. Online ingestion uses it to filter live observations
// before they reach a fine-tune.
func ValidateSample(cfg Config, s Sample) error {
	if err := checkSample(cfg, s); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// checkSample is the prefix-free form shared by ValidateSample and
// validateSamples, so neither wrapper doubles the package prefix.
func checkSample(cfg Config, s Sample) error {
	if s.ScaleOut <= 0 {
		return fmt.Errorf("scale-out %d must be positive", s.ScaleOut)
	}
	if err := dataset.CheckRuntime(s.RuntimeSec); err != nil {
		return err
	}
	if len(s.Essential) != cfg.NumEssential {
		return fmt.Errorf("got %d essential properties, model expects %d",
			len(s.Essential), cfg.NumEssential)
	}
	if len(s.Optional) > cfg.NumOptional {
		return fmt.Errorf("got %d optional properties, model allows %d",
			len(s.Optional), cfg.NumOptional)
	}
	return nil
}

// validateSamples checks that every sample matches the model's expected
// property counts and has a positive scale-out and a positive, finite
// runtime.
func validateSamples(cfg Config, samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("core: no samples")
	}
	for i, s := range samples {
		if err := checkSample(cfg, s); err != nil {
			return fmt.Errorf("core: sample %d: %w", i, err)
		}
	}
	return nil
}
