package core

import "repro/internal/encoding"

// InferModel is the serving snapshot of a trained Model: a copy of its
// weights and scalers taken at Quantize time, answering through the
// Model's own prediction path. The network trains in float32, so the
// snapshot rounds nothing, and a served answer is the trained model's
// bit for bit. Like Model, an InferModel owns its weights and batch
// buffers, not its scratch; a warm call allocates nothing, and it is not
// safe for concurrent use (internal/serve serializes access).
type InferModel struct {
	m *Model
}

// Quantize snapshots the model for serving. The returned InferModel is
// independent of m: later training on m does not affect it.
func (m *Model) Quantize() (*InferModel, error) {
	c, err := m.Clone()
	if err != nil {
		return nil, err
	}
	return &InferModel{m: c}, nil
}

// ValidateQuery checks a query against the model's expected property
// counts without running inference.
func (im *InferModel) ValidateQuery(q Query) error { return im.m.ValidateQuery(q) }

// Pretrained reports whether the source model went through Pretrain.
func (im *InferModel) Pretrained() bool { return im.m.Pretrained() }

// FinetuneSamples reports the fine-tuning sample count of the source
// model at snapshot time.
func (im *InferModel) FinetuneSamples() int { return im.m.FinetuneSamples() }

// Predict estimates the runtime in seconds for a single query.
func (im *InferModel) Predict(scaleOut int, essential, optional []encoding.Property) (float64, error) {
	return im.m.Predict(scaleOut, essential, optional)
}

// PredictBatchInto estimates runtimes for queries into dst, one forward
// pass for the whole batch (Model.PredictBatchInto).
func (im *InferModel) PredictBatchInto(dst []float64, queries []Query) error {
	return im.m.PredictBatchInto(dst, queries)
}

// LastRows reports the encoder work of the last PredictBatchInto: how
// many property values its queries carried and on how many distinct
// ones the encoder ran.
func (im *InferModel) LastRows() (property, distinct int) { return im.m.LastRows() }
