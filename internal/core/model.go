package core

import (
	"hash/maphash"
	"slices"

	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/nn"
)

// Model is the Bellamy architecture of Fig. 3: the scale-out network f,
// the property auto-encoder g/h, and the runtime predictor z, together
// with the feature normalizer and target scaler fixed at training time.
//
// A Model owns its weights, scalers and reusable batch buffers, not its
// scratch: every call that runs the network borrows a workspace arena
// for its length (see scratch.go). Steady-state training steps and warm
// batched inference are allocation-free; the batch buffers and layer
// caches are why a Model is not safe for concurrent use (see
// internal/serve for the serialization wrapper).
type Model struct {
	Cfg Config

	f *nn.MLP // scale-out modeling: 3 -> ScaleOutHidden -> F
	g *nn.MLP // encoder: N -> EncoderHidden -> M (no biases)
	h *nn.MLP // decoder: M -> EncoderHidden -> N (no biases, tanh out)
	z *nn.MLP // predictor: F+(m+1)M -> PredictorHidden -> 1

	norm   *MinMaxNormalizer
	target *TargetScaler
	enc    *encoding.PropertyEncoder
	rng    *nn.Rand

	// ws backs every forward/backward intermediate of the call in
	// progress: borrowed when a public entry point starts, given back
	// when it returns, nil between calls. Each forward pass starts a new
	// round on it, so a buffer lives for exactly one forward(+backward)
	// pass. scratchPeak is the call's largest round, in bytes.
	ws          *mat.WorkspaceF32
	scratchPeak int
	fst         forwardState

	// Long-lived batch buffers (they must survive ws.Reset): trainB is
	// refilled per training step, inferB serves Predict/PredictBatch.
	trainB, inferB batch
	// corpus is the last Pretrain's encoded corpus, and remap the state
	// of a step's gather from it (each shard's replica has its own).
	corpus corpusTable
	remap  rowRemap

	// second is the replica a split training step runs its second shard
	// on (see trainStep); pass is this model's own share of the step.
	second *Model
	pass   gradPass

	// slab holds every parameter, f's, g's, h's and z's in that order:
	// the weights in one block, the gradients in another (see nn.Slab).
	// A replica's slab shares the weights and owns its gradients.
	slab *nn.Slab
	// params caches each component's parameter list, so the per-step
	// "does anything in f learn" checks allocate nothing; fine-tuning's
	// freeze schedules and reuse strategies work on them too.
	params struct{ f, g, h, z []*nn.Param }
	// rows is fillBatch's table of the values of the batch being filled.
	rows rowTable
	// encRow stages a property vector in float64, the encoder's
	// precision, before it is rounded into its batch row.
	encRow []float64

	scratchSamples []Sample
	scratchQuery   [1]Query
	scratchPred    [1]float64

	pretrained bool
	// finetuneSamples is the sample count of the last Finetune on this
	// model — the context support the allocation engine's fallback
	// decision consults. It survives Clone and Save/Load, so a model
	// fine-tuned offline keeps its support when served from disk.
	finetuneSamples int
}

// New builds an initialized (untrained) Bellamy model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := nn.NewRand(cfg.Seed)
	act := nn.ActivationByName(cfg.Activation)
	nets, slab := nn.BuildSlab(rng,
		nn.TwoLayerSpec{
			Name: "f", In: 3, Hidden: cfg.ScaleOutHidden, Out: cfg.ScaleOutDim,
			ActHidden: act, ActOut: act, WithBias: true, Init: cfg.Init,
		},
		nn.TwoLayerSpec{
			Name: "g", In: cfg.PropertySize, Hidden: cfg.EncoderHidden, Out: cfg.EncodingDim,
			ActHidden: act, ActOut: act, WithBias: false,
			Dropout: cfg.Dropout, Init: cfg.Init,
		},
		nn.TwoLayerSpec{
			Name: "h", In: cfg.EncodingDim, Hidden: cfg.EncoderHidden, Out: cfg.PropertySize,
			ActHidden: act, ActOut: nn.Tanh{}, WithBias: false,
			Dropout: cfg.Dropout, Init: cfg.Init,
		},
		nn.TwoLayerSpec{
			Name: "z", In: cfg.CombinedDim(), Hidden: cfg.PredictorHidden, Out: 1,
			ActHidden: act, ActOut: nn.Identity{}, WithBias: true, Init: cfg.Init,
		},
	)
	m := &Model{
		Cfg:    cfg,
		f:      nets[0],
		g:      nets[1],
		h:      nets[2],
		z:      nets[3],
		slab:   slab,
		norm:   &MinMaxNormalizer{},
		target: &TargetScaler{Scale: 1},
		enc:    encoding.NewPropertyEncoder(cfg.PropertySize),
		rng:    rng,
	}
	m.indexParams()
	return m, nil
}

// indexParams fills the per-component parameter lists from the networks.
func (m *Model) indexParams() {
	m.params.f, m.params.g = m.f.Params(), m.g.Params()
	m.params.h, m.params.z = m.h.Params(), m.z.Params()
}

// replica returns a model around m's parameter values that owns
// everything a training pass writes: layer caches, batch buffers,
// gradients (a block of their own in the layout of m's, see
// nn.Slab.Replica), the row remap of its gathers, and a dropout
// generator seeded from the model seed and the shard index. It holds no
// second copy of a weight, and no property encoder: a shard gathers its
// rows from the corpus m encoded. Its scalers are whatever m's are when
// a training run hands it to a shard.
func (m *Model) replica(shard int) *Model {
	rng := nn.NewRand(m.Cfg.Seed + int64(shard)*0x5DEECE66D)
	r := &Model{
		Cfg: m.Cfg,
		f:   m.f.Replica(rng), g: m.g.Replica(rng), h: m.h.Replica(rng), z: m.z.Replica(rng),
		rng: rng,
	}
	r.indexParams()
	r.slab = m.slab.Replica(r.Params())
	return r
}

// Params returns all learnable parameters grouped by component.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.params.f...)
	ps = append(ps, m.params.g...)
	ps = append(ps, m.params.h...)
	ps = append(ps, m.params.z...)
	return ps
}

// Pretrained reports whether the model went through Pretrain.
func (m *Model) Pretrained() bool { return m.pretrained }

// FinetuneSamples reports how many samples the last Finetune on this
// model used (0 when it was never fine-tuned).
func (m *Model) FinetuneSamples() int { return m.finetuneSamples }

// batch is the matrix representation of a set of samples, in the
// network's float32. Its buffers are long-lived and refilled in place,
// so rebuilding a batch of an already-seen size allocates nothing.
//
// A corpus is many executions of few contexts, so the property vectors
// of a batch are stored once each: props holds the distinct vectors and
// propRow says which of them every property slot reads. Whatever is a
// function of the vector alone (the encoder's first layer, in eval mode
// the whole encoder) then runs on the distinct rows only.
type batch struct {
	scaleFeat *mat.DenseF32 // B x 3, normalized
	props     *mat.DenseF32 // U x N: each distinct property vector once
	propRow   []int32       // B * propsPer: the row of props a slot reads
	propsPer  int           // property slots per sample: NumEssential + NumOptional
	numOpt    []int         // count of optional properties per sample
	targets   *mat.DenseF32 // B x 1, scaled runtimes
	runtimes  []float64     // raw seconds

	// codes is the encoder output on props (U x M) while codesFixed:
	// Finetune computes it once because its encoder is frozen. The next
	// fillBatch drops it.
	codes      *mat.DenseF32
	codesFixed bool
}

// ensure shapes the batch buffers for bSize samples and empties props
// with room for propRows rows, reusing backing storage whenever
// capacity allows: rows added up to that many (addProp) allocate
// nothing.
func (b *batch) ensure(bSize, propsPer, propSize, propRows int) {
	b.scaleFeat = mat.Resized32(b.scaleFeat, bSize, 3)
	if b.props == nil {
		b.props = &mat.DenseF32{}
	}
	b.props.Rows, b.props.Cols = 0, propSize
	b.props.Data = slices.Grow(b.props.Data[:0], propRows*propSize)
	if cap(b.propRow) < bSize*propsPer {
		b.propRow = make([]int32, bSize*propsPer)
	}
	b.propRow = b.propRow[:bSize*propsPer]
	b.propsPer = propsPer
	b.codesFixed = false
	b.targets = mat.Resized32(b.targets, bSize, 1)
	if cap(b.numOpt) < bSize {
		b.numOpt = make([]int, bSize)
	}
	b.numOpt = b.numOpt[:bSize]
	if cap(b.runtimes) < bSize {
		b.runtimes = make([]float64, bSize)
	}
	b.runtimes = b.runtimes[:bSize]
}

// addProp appends one row to props and returns its index and storage
// (contents unspecified).
func (b *batch) addProp() (int32, []float32) {
	r, n := b.props.Rows, b.props.Cols
	b.props.Data = slices.Grow(b.props.Data, n)[:(r+1)*n]
	b.props.Rows = r + 1
	return int32(r), b.props.Data[r*n:]
}

// rowTable finds the distinct property values of one call. The code of
// a property is a function of its value alone (Eq. 5), so fillBatch and
// InferModel.PredictBatchInto ask the table, slot by slot, which row
// already holds a value's vector and encode only the values it has not
// seen in this call. It is open-addressed over a seeded 64-bit hash; the
// hash finds a slot, comparing the value decides. Moving to the next
// generation empties it, so a call neither clears nor rebuilds the
// slots, a warm call allocates nothing, and no value is kept past the
// call that brought it: what an earlier call saw costs a later one
// neither memory nor sharing.
type rowTable struct {
	seed  maphash.Seed
	slots []rowSlot // a power of two of them, at most half live
	gen   uint32    // a slot is live when it carries this
	live  int
	vals  []string // vals[r] is the value whose vector is row r
}

type rowSlot struct {
	hash uint64
	gen  uint32
	row  int32
}

// rowOf returns the row recorded for value in this call and true, or
// records next as its row and returns that and false: the caller then
// owes row next the value's vector.
func (t *rowTable) rowOf(value string, next int32) (int32, bool) {
	if 2*(t.live+1) > len(t.slots) {
		t.grow()
	}
	h := maphash.String(t.seed, value)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i].gen == t.gen; i = (i + 1) & mask {
		if s := &t.slots[i]; s.hash == h && t.vals[s.row] == value {
			return s.row, true
		}
	}
	t.slots[i] = rowSlot{hash: h, gen: t.gen, row: next}
	t.live++
	// Rows the caller filled without asking (the all-zero row of missing
	// slots) leave gaps no slot points at.
	for len(t.vals) <= int(next) {
		t.vals = append(t.vals, "")
	}
	t.vals[next] = value
	return next, false
}

// grow doubles the slots, carrying the live ones over.
func (t *rowTable) grow() {
	old := t.slots
	if old == nil {
		t.seed, t.gen = maphash.MakeSeed(), 1
	}
	t.slots = make([]rowSlot, max(64, 2*len(old)))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.gen != t.gen {
			continue
		}
		i := s.hash & mask
		for t.slots[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// reset forgets every value. It ends each call that used the table.
func (t *rowTable) reset() {
	clear(t.vals)
	t.vals = t.vals[:0]
	t.live = 0
	if t.gen++; t.gen == 0 { // wrapped: generation 0 marks a never-used slot
		clear(t.slots)
		t.gen = 1
	}
}

// encodeRow writes the vector of value into dst, staged in float64.
func (m *Model) encodeRow(dst []float32, value string) {
	if len(m.encRow) != m.Cfg.PropertySize {
		m.encRow = make([]float64, m.Cfg.PropertySize)
	}
	m.enc.EncodeTo(m.encRow, value)
	rowToF32(dst, m.encRow)
}

// rowToF32 rounds a float64 row staged by the encoder or the scalers
// into its float32 batch row.
func rowToF32(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// fillBatch encodes the selected samples into b. idx selects (and
// orders) samples; a nil idx encodes all of them in order, without
// copying any Sample. The scalers and the property encoder work in
// float64; each row is rounded to float32 as it lands in the batch.
// Optional properties may be fewer than cfg.NumOptional; missing slots
// read one shared all-zero row, which contributes nothing to the
// optional mean. The slots are given their rows first, a new row on a
// value's first occurrence, and the distinct vectors are encoded after,
// into props sized once.
func (m *Model) fillBatch(b *batch, samples []Sample, idx []int) {
	cfg := m.Cfg
	bSize := len(samples)
	if idx != nil {
		bSize = len(idx)
	}
	propsPer := cfg.NumEssential + cfg.NumOptional
	b.ensure(bSize, propsPer, cfg.PropertySize, 0)
	zeroRow, next := int32(-1), int32(0)
	rowOf := func(value string) int32 {
		r, seen := m.rows.rowOf(value, next)
		if !seen {
			next++
		}
		return r
	}
	for i := 0; i < bSize; i++ {
		j := i
		if idx != nil {
			j = idx[i]
		}
		s := &samples[j]
		var feat [3]float64
		ScaleOutFeaturesInto(feat[:], s.ScaleOut)
		m.norm.TransformInPlace(feat[:])
		rowToF32(b.scaleFeat.Row(i), feat[:])
		slots := b.propRow[i*propsPer : (i+1)*propsPer]
		for k, p := range s.Essential {
			slots[k] = rowOf(p.Value)
		}
		b.numOpt[i] = len(s.Optional)
		for k, p := range s.Optional {
			slots[cfg.NumEssential+k] = rowOf(p.Value)
		}
		for k := cfg.NumEssential + len(s.Optional); k < propsPer; k++ {
			if zeroRow < 0 {
				zeroRow, next = next, next+1
			}
			slots[k] = zeroRow
		}
		b.targets.Data[i] = float32(m.target.ToScaled(s.RuntimeSec))
		b.runtimes[i] = s.RuntimeSec
	}
	n := cfg.PropertySize
	b.props.Rows = int(next)
	b.props.Data = slices.Grow(b.props.Data, int(next)*n)[:int(next)*n]
	for r := range next {
		if vec := b.props.Data[int(r)*n : int(r+1)*n]; r == zeroRow {
			clear(vec)
		} else {
			m.encodeRow(vec, m.rows.vals[r])
		}
	}
	m.rows.reset()
}

// forwardState carries the intermediates of one forward pass that the
// backward pass needs. All matrices live in the call's arena and are
// recycled by the next forward call; the struct itself is embedded in
// the Model so running a pass allocates nothing, and emptied when the
// call gives its arena back.
type forwardState struct {
	b     *batch
	e     *mat.DenseF32 // B x F
	codes *mat.DenseF32 // train: (B*P) x M, one row per slot; else U x M, one per distinct vector
	r     *mat.DenseF32 // B x CombinedDim
	pred  *mat.DenseF32 // B x 1 (scaled)
	train bool
}

// codeRow returns the row of codes holding the encoder output for
// property slot s of the batch.
func (st *forwardState) codeRow(s int) int {
	if st.train {
		return s
	}
	return int(st.b.propRow[s])
}

// forward runs the architecture on a batch, returning the scaled
// runtime predictions together with every intermediate needed for the
// backward pass. The returned state is valid until the next forward
// call on this model, and at the latest until the call that borrowed
// the arena returns.
//
// train is the pre-training mode: alpha-dropout is active, so the codes
// of two occurrences of one property differ and the encoder runs per
// occurrence from its dropout on (its first layer still once per
// distinct vector). The decoder is not run here: the reconstruction
// term runs it forward and backward in one pass (runPass). Otherwise
// the encoder is a function of the property vector alone and runs on
// the distinct rows only — not at all when the batch carries fixed
// codes.
func (m *Model) forward(b *batch, train bool) *forwardState {
	cfg := m.Cfg
	m.newRound()
	m.fst = forwardState{b: b, train: train}
	st := &m.fst
	st.e = m.f.Forward(m.ws, b.scaleFeat, train)
	switch {
	case train:
		st.codes = m.g.ForwardRows(m.ws, b.props, b.propRow, true)
	case b.codesFixed:
		st.codes = b.codes
	default:
		st.codes = m.g.Forward(m.ws, b.props, false)
	}
	// Assemble r = e ⊕ essential codes ⊕ mean(optional codes) (Eq. 5).
	bSize := b.scaleFeat.Rows
	st.r = m.ws.Get(bSize, cfg.CombinedDim())
	nf, nc, rc := cfg.ScaleOutDim, cfg.EncodingDim, st.r.Cols
	codes := st.codes.Data
	for i := 0; i < bSize; i++ {
		row := st.r.Data[i*rc : i*rc+rc]
		copy(row[:nf], st.e.Data[i*nf:i*nf+nf])
		dst, slots := row[nf:], i*b.propsPer
		for k := 0; k < cfg.NumEssential; k++ {
			c := st.codeRow(slots+k) * nc
			copy(dst[:nc], codes[c:c+nc])
			dst = dst[nc:]
		}
		nOpt := b.numOpt[i]
		div := float32(nOpt)
		dst = dst[:nc]
		for k := 0; k < nOpt; k++ {
			c := st.codeRow(slots+cfg.NumEssential+k) * nc
			for j, v := range codes[c : c+nc] {
				dst[j] += v / div
			}
		}
	}
	st.pred = m.z.Forward(m.ws, st.r, train)
	return st
}

// fixCodes runs the encoder over the batch's distinct property vectors
// once and keeps the codes with the batch, for callers whose encoder
// cannot change between forward passes.
func (m *Model) fixCodes(b *batch) {
	m.newRound()
	codes := m.g.Forward(m.ws, b.props, false)
	b.codes = mat.Resized32(b.codes, codes.Rows, codes.Cols)
	copy(b.codes.Data, codes.Data)
	b.codesFixed = true
}

// backward propagates the joint loss gradients: predGrad is dLoss/dPred
// (scaled space), reconGrad is the reconstruction term's gradient w.r.t.
// the codes, or nil when the term is off; the decoder's own parameter
// gradients are already accumulated (MLP.ReconLossRows). Parameter
// gradients are accumulated; the caller steps the optimizer.
//
// Only gradients that reach a trainable parameter are computed: f and g
// read data, so their first layers compute no input gradient, and a
// component whose parameters are all frozen — the auto-encoder during
// fine-tuning, f until it is unfrozen — is skipped together with
// whatever only fed it.
func (m *Model) backward(st *forwardState, predGrad, reconGrad *mat.DenseF32) {
	cfg := m.Cfg
	fLearns := nn.AnyTrainable(m.params.f)
	aeLearns := nn.AnyTrainable(m.params.g) || nn.AnyTrainable(m.params.h)
	if !fLearns && !aeLearns {
		m.z.BackwardParams(m.ws, predGrad)
		return
	}
	gradR := m.z.Backward(m.ws, predGrad)
	bSize := gradR.Rows
	if fLearns {
		gradE := m.ws.GetRaw(bSize, cfg.ScaleOutDim)
		mat.SliceColsToF32(gradE, gradR, 0, cfg.ScaleOutDim)
		m.f.BackwardParams(m.ws, gradE)
	}
	if !aeLearns {
		return
	}
	if !st.train {
		panic("core: the encoder learns only from a training-mode forward pass")
	}
	// Route the code parts of gradR to the slots they were read from.
	// Slot s's row of gradCodes is row s of the training-mode codes.
	gradCodes := m.ws.Get(st.codes.Rows, cfg.EncodingDim)
	nf, nc, rc, per := cfg.ScaleOutDim, cfg.EncodingDim, gradR.Cols, st.b.propsPer
	for i := 0; i < bSize; i++ {
		src := gradR.Data[i*rc+nf : i*rc+rc]
		dst := gradCodes.Data[i*per*nc : (i+1)*per*nc]
		copy(dst[:cfg.NumEssential*nc], src[:cfg.NumEssential*nc])
		opt := src[cfg.NumEssential*nc : cfg.NumEssential*nc+nc]
		nOpt := st.b.numOpt[i]
		div := float32(nOpt)
		for k := cfg.NumEssential; k < cfg.NumEssential+nOpt; k++ {
			for j, g := range opt {
				dst[k*nc+j] = g / div
			}
		}
	}
	m.g.BackwardRows(m.ws, gradCodes, reconGrad)
}

// Predict estimates the runtime in seconds for a scale-out and context
// properties. The model must have been trained (pre-trained and/or
// fitted) for the estimate to be meaningful.
func (m *Model) Predict(scaleOut int, essential, optional []encoding.Property) (float64, error) {
	if err := m.ValidateQuery(Query{ScaleOut: scaleOut, Essential: essential, Optional: optional}); err != nil {
		return 0, err
	}
	m.scratchQuery[0] = Query{ScaleOut: scaleOut, Essential: essential, Optional: optional}
	err := m.PredictBatchInto(m.scratchPred[:], m.scratchQuery[:])
	m.scratchQuery[0] = Query{} // don't pin the caller's property slices
	if err != nil {
		return 0, err
	}
	return m.scratchPred[0], nil
}
