package core

import (
	"fmt"

	"repro/internal/encoding"
)

// Query is one inference request: a scale-out and the descriptive
// properties of the execution context it runs in.
type Query struct {
	ScaleOut  int
	Essential []encoding.Property
	Optional  []encoding.Property
}

// ValidateQuery checks a query against the model's expected property
// counts without running inference.
func (m *Model) ValidateQuery(q Query) error { return validateQuery(m.Cfg, q) }

// validateQuery is the query check of ValidateQuery.
func validateQuery(cfg Config, q Query) error {
	if q.ScaleOut <= 0 {
		return fmt.Errorf("core: scale-out %d must be positive", q.ScaleOut)
	}
	if len(q.Essential) != cfg.NumEssential {
		return fmt.Errorf("core: got %d essential properties, model expects %d",
			len(q.Essential), cfg.NumEssential)
	}
	if len(q.Optional) > cfg.NumOptional {
		return fmt.Errorf("core: got %d optional properties, model allows %d",
			len(q.Optional), cfg.NumOptional)
	}
	return nil
}

// PredictBatch estimates runtimes for many queries in a single forward
// pass, returning seconds in input order. One batched pass amortizes the
// per-call matrix setup over all rows, which is the fast path the
// serving layer builds on.
//
// A Model is not safe for concurrent use: forward passes cache
// per-layer state for backprop and fill the model's batch buffers.
// Callers serving concurrent traffic must serialize access (see
// internal/serve).
func (m *Model) PredictBatch(queries []Query) ([]float64, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	out := make([]float64, len(queries))
	if err := m.PredictBatchInto(out, queries); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto is the allocation-free form of PredictBatch: it
// writes the predicted runtimes into dst (len(dst) == len(queries)).
// Batch buffers are model-owned and every forward intermediate comes
// from a borrowed arena, so a warm call (a batch no larger than the
// model has seen, an arena no smaller than the call needs) allocates
// nothing.
func (m *Model) PredictBatchInto(dst []float64, queries []Query) error {
	if len(queries) == 0 {
		return nil
	}
	if len(dst) != len(queries) {
		return fmt.Errorf("core: dst len %d != queries len %d", len(dst), len(queries))
	}
	if cap(m.scratchSamples) < len(queries) {
		m.scratchSamples = make([]Sample, len(queries))
	}
	samples := m.scratchSamples[:len(queries)]
	for i, q := range queries {
		if err := m.ValidateQuery(q); err != nil {
			clear(samples[:i]) // release the query slices copied so far
			return fmt.Errorf("core: query %d: %w", i, err)
		}
		samples[i] = Sample{
			ScaleOut:   q.ScaleOut,
			Essential:  q.Essential,
			Optional:   q.Optional,
			RuntimeSec: 1, // placeholder; targets are unused in inference
		}
	}
	m.fillBatch(&m.inferB, samples, nil)
	// The batch holds encoded copies only; drop the references to the
	// caller's query property slices so a large request batch is not
	// pinned for the model's lifetime.
	clear(samples)
	m.borrowScratch()
	defer m.releaseScratch()
	st := m.forward(&m.inferB, false)
	for i := range dst {
		v := m.target.ToSeconds(float64(st.pred.Data[i]))
		// The network is unconstrained and can denormalize to a negative
		// runtime at extreme scale-outs; a runtime below zero is
		// meaningless, so the prediction boundary floors it.
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
	return nil
}

// LastRows reports the encoder work of the last PredictBatchInto: how
// many property values its queries carried and how many distinct ones
// the encoder ran on.
func (m *Model) LastRows() (property, distinct int) {
	return m.inferB.propertyCounts(m.Cfg)
}
