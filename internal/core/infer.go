package core

import (
	"fmt"
	"slices"

	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/nn"
)

// InferModel is the float32 serving form of a trained Model: the same
// f/g/z forward pass (the decoder h is training-only) with weights
// quantized to float32 and inference running through the f32 kernels.
// Feature encoding and normalization stay float64 — they are exact
// table/affine operations — and only the network arithmetic drops to
// single precision, so quantized predictions track the float64 model to
// ~1e-4 relative (pinned by TestQuantizedPredictionAccuracy).
//
// Like Model, an InferModel owns its weights and batch buffers, not its
// scratch: PredictBatchInto borrows a float32 arena for the call (see
// scratch.go). A warm call allocates nothing, and the model is not safe
// for concurrent use (internal/serve serializes access).
type InferModel struct {
	cfg Config

	f *nn.InferMLP32 // scale-out modeling
	g *nn.InferMLP32 // property encoder
	z *nn.InferMLP32 // runtime predictor

	norm   *MinMaxNormalizer
	target *TargetScaler
	// enc is the InferModel's own encoder (the memo map mutates on
	// lookup, so sharing the training model's encoder would couple
	// their thread-safety).
	enc *encoding.PropertyEncoder

	scaleFeat *mat.DenseF32 // B x 3
	// propVecs holds each distinct property vector of the call once
	// (U x N), propRow[i*P+k] the row slot k of query i reads, and rows
	// finds the repeats while the call fills them (see rowTable).
	propVecs     *mat.DenseF32
	propRow      []int32
	numOpt       []int
	rows         rowTable
	propertyRows int // property values of the last call
	// soFeat memoizes the normalized float32 scale-out feature row per
	// scale-out value (they repeat heavily within a batch, and each
	// computation involves a log). Valid for the model's lifetime: the
	// normalizer is a quantization-time snapshot.
	soFeat [soMemoCap][3]float32
	soSet  [soMemoCap]bool
	// encRow stages float64 encoder/normalizer output before the f32
	// convert; len = max(3, PropertySize).
	encRow []float64

	scratchQuery [1]Query
	scratchPred  [1]float64

	pretrained      bool
	finetuneSamples int
}

// soMemoCap bounds the memoized scale-out feature rows (cluster sizes
// past it — unrealistic for the paper's setting — just recompute).
const soMemoCap = 1024

// Quantize snapshots the model into its float32 serving form. The
// returned InferModel is independent of m: later training on m does not
// affect it.
func (m *Model) Quantize() (*InferModel, error) {
	f, err := nn.QuantizeMLP(m.f)
	if err != nil {
		return nil, fmt.Errorf("core: quantize f: %w", err)
	}
	g, err := nn.QuantizeMLP(m.g)
	if err != nil {
		return nil, fmt.Errorf("core: quantize g: %w", err)
	}
	z, err := nn.QuantizeMLP(m.z)
	if err != nil {
		return nil, fmt.Errorf("core: quantize z: %w", err)
	}
	norm := *m.norm
	target := *m.target
	n := m.Cfg.PropertySize
	if n < 3 {
		n = 3
	}
	return &InferModel{
		cfg:             m.Cfg,
		f:               f,
		g:               g,
		z:               z,
		norm:            &norm,
		target:          &target,
		enc:             encoding.NewPropertyEncoder(m.Cfg.PropertySize),
		propVecs:        &mat.DenseF32{Cols: m.Cfg.PropertySize},
		encRow:          make([]float64, n),
		pretrained:      m.pretrained,
		finetuneSamples: m.finetuneSamples,
	}, nil
}

// ValidateQuery checks a query against the model's expected property
// counts without running inference.
func (im *InferModel) ValidateQuery(q Query) error { return validateQuery(im.cfg, q) }

// Pretrained reports whether the source model went through Pretrain.
func (im *InferModel) Pretrained() bool { return im.pretrained }

// FinetuneSamples reports the fine-tuning sample count of the source
// model at quantization time.
func (im *InferModel) FinetuneSamples() int { return im.finetuneSamples }

// Predict estimates the runtime in seconds for a single query.
func (im *InferModel) Predict(scaleOut int, essential, optional []encoding.Property) (float64, error) {
	im.scratchQuery[0] = Query{ScaleOut: scaleOut, Essential: essential, Optional: optional}
	err := im.PredictBatchInto(im.scratchPred[:], im.scratchQuery[:])
	im.scratchQuery[0] = Query{} // don't pin the caller's property slices
	if err != nil {
		return 0, err
	}
	return im.scratchPred[0], nil
}

// PredictBatchInto estimates runtimes for queries into dst, one float32
// forward pass for the whole batch. The property encoder runs over the
// distinct values of the call — a scale-out sweep of one context encodes
// its seven properties once, not once per candidate — and the combine
// step reads each slot's code through propRow. One query has nothing to
// share and encodes straight into its rows. The pass runs on a borrowed
// arena sized by the largest pass it has served, not keyed by shape, so
// once the model has answered a call at least as large, a call allocates
// nothing, whatever its batch size and distinct-value count.
func (im *InferModel) PredictBatchInto(dst []float64, queries []Query) error {
	if len(queries) == 0 {
		return nil
	}
	if len(dst) != len(queries) {
		return fmt.Errorf("core: dst len %d != queries len %d", len(dst), len(queries))
	}
	cfg := im.cfg
	for i := range queries {
		if err := validateQuery(cfg, queries[i]); err != nil {
			return fmt.Errorf("core: query %d: %w", i, err)
		}
	}
	bSize := len(queries)
	propsPer := cfg.NumEssential + cfg.NumOptional
	im.scaleFeat = mat.Resized32(im.scaleFeat, bSize, 3)
	im.propVecs.Rows, im.propVecs.Data = 0, im.propVecs.Data[:0]
	if cap(im.propRow) < bSize*propsPer {
		im.propRow = make([]int32, bSize*propsPer)
		im.numOpt = make([]int, bSize)
	}
	im.propRow, im.numOpt = im.propRow[:bSize*propsPer], im.numOpt[:bSize]
	share := bSize > 1

	// Encode in float64 (exact), convert rows to float32.
	im.propertyRows = 0
	for i := range queries {
		q := &queries[i]
		if so := q.ScaleOut; so < soMemoCap {
			if !im.soSet[so] {
				feat := im.encRow[:3]
				ScaleOutFeaturesInto(feat, so)
				im.norm.TransformInPlace(feat)
				rowToF32(im.soFeat[so][:], feat)
				im.soSet[so] = true
			}
			copy(im.scaleFeat.Row(i), im.soFeat[so][:])
		} else {
			feat := im.encRow[:3]
			ScaleOutFeaturesInto(feat, q.ScaleOut)
			im.norm.TransformInPlace(feat)
			rowToF32(im.scaleFeat.Row(i), feat)
		}
		// Slots past the query's optional properties stay unset: the
		// combine step reads numOpt[i] of them.
		slots := im.propRow[i*propsPer : (i+1)*propsPer]
		for k, p := range q.Essential {
			slots[k] = im.rowOf(p.Value, share)
		}
		im.numOpt[i] = len(q.Optional)
		for k, p := range q.Optional {
			slots[cfg.NumEssential+k] = im.rowOf(p.Value, share)
		}
		im.propertyRows += cfg.NumEssential + len(q.Optional)
	}
	if share {
		im.rows.reset()
	}

	// The f64 forward pass of Model.forward, minus training branches.
	ws := arenas32.Get()
	defer arenas32.Put(ws)
	e := im.f.Forward(ws, im.scaleFeat)
	codes := im.g.Forward(ws, im.propVecs)
	r := ws.GetRaw(bSize, cfg.CombinedDim())
	for i := 0; i < bSize; i++ {
		row := r.Row(i)
		slots := im.propRow[i*propsPer : (i+1)*propsPer]
		copy(row[:cfg.ScaleOutDim], e.Row(i))
		off := cfg.ScaleOutDim
		for k := 0; k < cfg.NumEssential; k++ {
			copy(row[off:off+cfg.EncodingDim], codes.Row(int(slots[k])))
			off += cfg.EncodingDim
		}
		opt := row[off : off+cfg.EncodingDim]
		clear(opt) // GetRaw contents are unspecified
		if nOpt := im.numOpt[i]; nOpt > 0 {
			inv := 1 / float32(nOpt)
			for k := 0; k < nOpt; k++ {
				code := codes.Row(int(slots[cfg.NumEssential+k]))
				for j := range opt {
					opt[j] += code[j] * inv
				}
			}
		}
	}
	pred := im.z.Forward(ws, r)
	for i := range dst {
		v := im.target.ToSeconds(float64(pred.Data[i]))
		// Same prediction boundary as the f64 path: negative runtimes
		// are meaningless, floor at zero.
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
	return nil
}

// rowOf returns the row of propVecs holding value's vector, encoding it
// into a new row unless share is set and the call has met the value
// before.
func (im *InferModel) rowOf(value string, share bool) int32 {
	next := int32(im.propVecs.Rows)
	if share {
		if r, seen := im.rows.rowOf(value, next); seen {
			return r
		}
	}
	n := im.cfg.PropertySize
	im.propVecs.Data = slices.Grow(im.propVecs.Data, n)[:(int(next)+1)*n]
	im.propVecs.Rows++
	enc := im.encRow[:n]
	im.enc.EncodeTo(enc, value)
	rowToF32(im.propVecs.Row(int(next)), enc)
	return next
}

// LastRows reports the encoder work of the last PredictBatchInto: how
// many property values its queries carried and on how many rows the
// encoder ran. Their ratio is what the call shared.
func (im *InferModel) LastRows() (property, distinct int) {
	return im.propertyRows, im.propVecs.Rows
}

// rowToF32 narrows a staged float64 row into its float32 batch row.
func rowToF32(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}
