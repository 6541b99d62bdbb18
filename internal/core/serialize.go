package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/nn"
)

// modelBlob is the gob wire format for a saved Bellamy model. Fields
// added over time decode as their zero value from older blobs (gob
// skips absent fields), so old model files stay loadable.
type modelBlob struct {
	Cfg             Config
	State           nn.State
	NormMin         []float64
	NormMax         []float64
	NormFitted      bool
	Scale           float64
	Pretrained      bool
	FinetuneSamples int
}

// Save writes the model to w (config, weights, normalization bounds,
// target scale). The paper's workflow depends on this: pre-trained models
// are preserved and later loaded for fine-tuning.
func (m *Model) Save(w io.Writer) error {
	blob := modelBlob{
		Cfg:             m.Cfg,
		State:           nn.CaptureState(m.Params()),
		NormMin:         m.norm.Min,
		NormMax:         m.norm.Max,
		NormFitted:      m.norm.Fitted(),
		Scale:           m.target.Scale,
		Pretrained:      m.pretrained,
		FinetuneSamples: m.finetuneSamples,
	}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("core: encoding model: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var blob modelBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	m, err := New(blob.Cfg)
	if err != nil {
		return nil, err
	}
	if err := nn.RestoreState(m.Params(), blob.State); err != nil {
		return nil, err
	}
	m.norm = &MinMaxNormalizer{Min: blob.NormMin, Max: blob.NormMax}
	if blob.NormFitted {
		m.norm.fitted = true
	}
	m.target = &TargetScaler{Scale: blob.Scale}
	m.pretrained = blob.Pretrained
	m.finetuneSamples = blob.FinetuneSamples
	return m, nil
}

// SaveFile writes the model to a file path.
func (m *Model) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("core: writing model file: %w", err)
	}
	return nil
}

// LoadFile reads a model from a file path.
func LoadFile(path string) (*Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading model file: %w", err)
	}
	return Load(bytes.NewReader(b))
}

// Clone deep-copies the model (weights, normalization, scaler) so that a
// pre-trained model can be fine-tuned repeatedly from the same starting
// point — the evaluation's sub-sampling cross-validation and the online
// fine-tuning of the serving lifecycle both depend on it. The copy is
// direct (no serialization round-trip) and deliberately shallow where
// state is transient: the clone gets empty batch buffers, and like every
// model it owns no arena (its calls borrow one), so cloning a model that
// has served large batches duplicates none of its scratch.
func (m *Model) Clone() (*Model, error) {
	c, err := New(m.Cfg)
	if err != nil {
		return nil, err
	}
	src, dst := m.Params(), c.Params()
	for i, p := range src {
		copy(dst[i].Value.Data, p.Value.Data)
	}
	c.norm = &MinMaxNormalizer{
		Min:    append([]float64(nil), m.norm.Min...),
		Max:    append([]float64(nil), m.norm.Max...),
		fitted: m.norm.fitted,
	}
	c.target = &TargetScaler{Scale: m.target.Scale}
	c.pretrained = m.pretrained
	c.finetuneSamples = m.finetuneSamples
	return c, nil
}
