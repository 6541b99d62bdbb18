package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/nn"
)

// Model file layout, format version 2. Integers and floats are fixed
// width, little-endian; a float is its IEEE-754 bits.
//
//	magic       7 bytes  "BLMYMDL"
//	version     u8       2
//	config      every Config field in declaration order: ints and Init
//	            as i64, floats as f64, Activation as u32 length + bytes
//	nparams     u32
//	params      nparams times, sorted by name:
//	              name  u32 length + bytes
//	              rows  u32
//	              cols  u32
//	              data  rows·cols f32, row-major: the network's
//	                    own precision
//	normMin     u32 count + count f64
//	normMax     u32 count + count f64
//	normFitted  u8       0 or 1
//	scale       f64      target scale
//	pretrained  u8       0 or 1
//	finetuned   i64      sample count of the last Finetune
//	crc         u32      CRC32C of every byte before it
//
// Model files, checkpoint blobs and hot-swap blobs are all this format,
// and one model always encodes to the same bytes. Load checks the magic,
// the version and the checksum before it reads a field, and then holds
// the fields to what New and the forward pass need: known activation
// and init scheme, every dimension in [1, maxModelDim] (NumOptional from
// 0) with the weights it implies fitting in what is left of the input,
// every parameter exactly once in name order with the shape New builds,
// 3 normalizer bounds each when fitted and none when not, a finite
// target scale above 0, and no trailing bytes. Version 1 stored the
// weights of the float64 network this repository used to train, and
// files from before version 1 were gob-encoded and carry no magic;
// neither is read (re-run `bellamy train`).
const (
	modelMagic   = "BLMYMDL"
	modelVersion = 2
	// maxModelDim bounds every Config dimension a decoded model may
	// claim, so its products cannot overflow and NumOptional, which no
	// weight is sized by, cannot make one query allocate without bound.
	maxModelDim = 1 << 16
	// scaleOutFeatureDim is the width of ScaleOutFeaturesInto's vector,
	// and so of a fitted normalizer.
	scaleOutFeatureDim = 3
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the model in format v2 (config, weights, normalization
// bounds, target scale). The paper's workflow depends on this:
// pre-trained models are preserved and later loaded for fine-tuning.
func (m *Model) Save(w io.Writer) error {
	if _, err := w.Write(m.encode()); err != nil {
		return fmt.Errorf("core: writing model: %w", err)
	}
	return nil
}

// encode returns the model's format v2 bytes.
func (m *Model) encode() []byte {
	params := m.sortedParams()
	size := 512
	for _, p := range params {
		size += 12 + len(p.Name) + 4*len(p.Value.Data)
	}
	b := make([]byte, 0, size)
	b = append(b, modelMagic...)
	b = append(b, modelVersion)
	cfg := m.Cfg
	for _, f := range cfg.wireFields() {
		switch v := f.(type) {
		case *int:
			b = binary.LittleEndian.AppendUint64(b, uint64(*v))
		case *int64:
			b = binary.LittleEndian.AppendUint64(b, uint64(*v))
		case *nn.InitScheme:
			b = binary.LittleEndian.AppendUint64(b, uint64(*v))
		case *float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*v))
		case *string:
			b = binary.LittleEndian.AppendUint32(b, uint32(len(*v)))
			b = append(b, *v...)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(params)))
	for _, p := range params {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Name)))
		b = append(b, p.Name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(p.Value.Rows))
		b = binary.LittleEndian.AppendUint32(b, uint32(p.Value.Cols))
		for _, v := range p.Value.Data {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	for _, bound := range [][]float64{m.norm.Min, m.norm.Max} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(bound)))
		b = appendFloats(b, bound)
	}
	b = appendFlag(b, m.norm.Fitted())
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.target.Scale))
	b = appendFlag(b, m.pretrained)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.finetuneSamples))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// wireFields lists c's fields in declaration order, the order the
// format stores them in. A field missing here is not saved, which
// TestConfigRoundTripsEveryField catches.
func (c *Config) wireFields() []any {
	return []any{
		&c.PropertySize, &c.EncodingDim, &c.EncoderHidden, &c.ScaleOutHidden,
		&c.ScaleOutDim, &c.PredictorHidden, &c.NumEssential, &c.NumOptional,
		&c.Dropout, &c.LearningRate, &c.WeightDecay, &c.BatchSize,
		&c.PretrainEpochs, &c.HuberDelta, &c.ReconWeight, &c.GradClipNorm,
		&c.FinetuneEpochs, &c.FinetunePatience, &c.FinetuneTargetMAE,
		&c.FinetuneLRLow, &c.FinetuneLRHigh, &c.FinetuneWeightDecay,
		&c.UnfreezeAfterPerSample, &c.Activation, &c.Init, &c.Seed,
	}
}

// sortedParams returns the model's parameters ordered by name.
func (m *Model) sortedParams() []*nn.Param {
	ps := m.Params()
	slices.SortFunc(ps, func(a, b *nn.Param) int { return strings.Compare(a.Name, b.Name) })
	return ps
}

func appendFloats(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	return decodeModel(b)
}

// errNoMagic answers bytes without the format's magic: a file from
// before format v1, or not a model at all.
var errNoMagic = errors.New("core: not a format v2 model (no " + modelMagic +
	" header); models saved before format v1 cannot be read, re-run bellamy train")

// errV1 answers a format v1 image: the weights of a float64 network,
// which this build does not train or serve.
var errV1 = errors.New("core: format v1 model (float64 weights); this build reads format v2 float32 models, re-run bellamy train")

// decodeModel parses and checks one format v2 image (see the layout
// above).
func decodeModel(b []byte) (*Model, error) {
	const header = len(modelMagic) + 1
	if !bytes.HasPrefix(b, []byte(modelMagic)) {
		return nil, errNoMagic
	}
	if len(b) < header+4 {
		return nil, fmt.Errorf("core: model of %d bytes is shorter than its header and checksum", len(b))
	}
	switch v := b[len(modelMagic)]; v {
	case modelVersion:
	case 1:
		return nil, errV1
	default:
		return nil, fmt.Errorf("core: model format version %d is not supported (this build reads version %d)", v, modelVersion)
	}
	body := b[:len(b)-4]
	if stored, sum := binary.LittleEndian.Uint32(b[len(body):]), crc32.Checksum(body, castagnoli); stored != sum {
		return nil, fmt.Errorf("core: model checksum mismatch: stored %08x, computed %08x", stored, sum)
	}
	c := cursor{b: body, off: header}

	var cfg Config
	for _, f := range cfg.wireFields() {
		switch v := f.(type) {
		case *int:
			*v = int(int64(c.u64()))
		case *int64:
			*v = int64(c.u64())
		case *nn.InitScheme:
			*v = nn.InitScheme(int64(c.u64()))
		case *float64:
			*v = c.f64()
		case *string:
			*v = string(c.take(int(c.u32())))
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if err := checkDecodedConfig(cfg, c.remaining()); err != nil {
		return nil, err
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}

	params := m.sortedParams()
	if n := c.u32(); c.err == nil && int(n) != len(params) {
		return nil, fmt.Errorf("core: model has %d parameters, its config builds %d", n, len(params))
	}
	for i, p := range params {
		name := c.take(int(c.u32()))
		rows, cols := c.u32(), c.u32()
		if c.err != nil {
			return nil, c.err
		}
		if string(name) != p.Name {
			return nil, fmt.Errorf("core: parameter %d is %q, want %q (every parameter once, sorted by name)", i, name, p.Name)
		}
		if int(rows) != p.Value.Rows || int(cols) != p.Value.Cols {
			return nil, fmt.Errorf("core: parameter %q is %dx%d, its config builds %dx%d", p.Name, rows, cols, p.Value.Rows, p.Value.Cols)
		}
		c.floats32Into(p.Value.Data)
	}
	normMin := c.bound()
	normMax := c.bound()
	fitted := c.flag("normalizer fitted")
	scale := c.f64()
	pretrained := c.flag("pretrained")
	finetuned := int64(c.u64())
	if c.err != nil {
		return nil, c.err
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after the model", c.remaining())
	}
	want := 0
	if fitted {
		want = scaleOutFeatureDim
	}
	if len(normMin) != want || len(normMax) != want {
		return nil, fmt.Errorf("core: normalizer (fitted %v) has %d/%d bounds, want %d", fitted, len(normMin), len(normMax), want)
	}
	for j := range normMin {
		if !finite(normMin[j]) || !finite(normMax[j]) {
			return nil, fmt.Errorf("core: normalizer bound %d is not finite", j)
		}
	}
	if !(scale > 0) || !finite(scale) {
		return nil, fmt.Errorf("core: target scale %v is not finite and above 0", scale)
	}
	if finetuned < 0 {
		return nil, fmt.Errorf("core: fine-tune sample count %d is negative", finetuned)
	}
	m.norm = &MinMaxNormalizer{Min: normMin, Max: normMax, fitted: fitted}
	m.target = &TargetScaler{Scale: scale}
	m.pretrained = pretrained
	m.finetuneSamples = int(finetuned)
	return m, nil
}

// checkDecodedConfig rejects a decoded config New would panic on or
// whose weights could not be in the avail bytes that follow it, before
// New allocates anything.
func checkDecodedConfig(cfg Config, avail int) error {
	switch cfg.Init {
	case nn.InitHe, nn.InitLeCun, nn.InitXavier:
	default:
		return fmt.Errorf("core: unknown init scheme %d", cfg.Init)
	}
	for _, d := range []struct {
		name string
		v    int
		min  int
	}{
		{"PropertySize", cfg.PropertySize, 1}, {"EncodingDim", cfg.EncodingDim, 1},
		{"EncoderHidden", cfg.EncoderHidden, 1}, {"ScaleOutHidden", cfg.ScaleOutHidden, 1},
		{"ScaleOutDim", cfg.ScaleOutDim, 1}, {"PredictorHidden", cfg.PredictorHidden, 1},
		{"NumEssential", cfg.NumEssential, 1}, {"NumOptional", cfg.NumOptional, 0},
	} {
		if d.v < d.min || d.v > maxModelDim {
			return fmt.Errorf("core: %s %d outside [%d, %d]", d.name, d.v, d.min, maxModelDim)
		}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if need := 4 * cfg.paramCount(); need > int64(avail) {
		return fmt.Errorf("core: config implies %d bytes of weights, %d bytes remain", need, avail)
	}
	return nil
}

// paramCount is the number of weights New(c) builds, computed without
// building them (in int64: c's dimensions may be anything a file says).
func (c Config) paramCount() int64 {
	soh, sod := int64(c.ScaleOutHidden), int64(c.ScaleOutDim)
	ps, eh, ed := int64(c.PropertySize), int64(c.EncoderHidden), int64(c.EncodingDim)
	ph := int64(c.PredictorHidden)
	combined := sod + (int64(c.NumEssential)+1)*ed
	f := 3*soh + soh + soh*sod + sod
	gh := 2 * (ps*eh + eh*ed)
	z := combined*ph + ph + ph + 1
	return f + gh + z
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// cursor is a bounds-checked reader over a model image. The first read
// past the end (or an invalid value) sets err, and every later read
// returns zero values, so the decoder checks err once per section
// instead of after every field.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

// take returns the next n bytes, or nil once err is set.
func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > c.remaining() {
		c.err = fmt.Errorf("core: model truncated: %d bytes wanted at byte %d of %d", n, c.off, len(c.b))
		return nil
	}
	p := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return p
}

func (c *cursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if p := c.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) flag(what string) bool {
	p := c.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		c.err = fmt.Errorf("core: %s flag is %d, want 0 or 1", what, p[0])
	}
	return p[0] == 1
}

// floatsInto fills dst from the next 8·len(dst) bytes.
func (c *cursor) floatsInto(dst []float64) {
	p := c.take(8 * len(dst))
	if p == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// floats32Into fills dst from the next 4·len(dst) bytes.
func (c *cursor) floats32Into(dst []float32) {
	p := c.take(4 * len(dst))
	if p == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
}

// bound reads one count-prefixed normalizer bound. A count above the
// one width a fitted normalizer has is an error before anything is
// allocated for it.
func (c *cursor) bound() []float64 {
	n := c.u32()
	if c.err != nil || n == 0 {
		return nil
	}
	if n > scaleOutFeatureDim {
		c.err = fmt.Errorf("core: normalizer bound of %d values, at most %d", n, scaleOutFeatureDim)
		return nil
	}
	out := make([]float64, n)
	c.floatsInto(out)
	return out
}

// SaveFile writes the model to a file path.
func (m *Model) SaveFile(path string) error {
	if err := os.WriteFile(path, m.encode(), 0o644); err != nil {
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
	return decodeModel(b)
}

// Clone deep-copies the model (weights, normalization, scaler) so that a
// pre-trained model can be fine-tuned repeatedly from the same starting
// point — the evaluation's sub-sampling cross-validation and the online
// fine-tuning of the serving lifecycle both depend on it. The copy is
// direct (no serialization round-trip): the weights are one copy of the
// weight block, which a model of the same Config lays out alike. It is
// deliberately shallow where state is transient: the clone gets empty
// batch buffers, and like every model it owns no arena (its calls
// borrow one), so cloning a model that has served large batches
// duplicates none of its scratch.
func (m *Model) Clone() (*Model, error) {
	c, err := New(m.Cfg)
	if err != nil {
		return nil, err
	}
	copy(c.slab.Values(), m.slab.Values())
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
