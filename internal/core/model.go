package core

import (
	"hash/maphash"
	"math/rand"
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
	rng    *rand.Rand

	// ws backs every forward/backward intermediate of the call in
	// progress: borrowed when a public entry point starts, given back
	// when it returns, nil between calls. Each forward pass starts a new
	// round on it, so a buffer lives for exactly one forward(+backward)
	// pass. scratchPeak is the call's largest round, in bytes.
	ws          *mat.Workspace
	scratchPeak int
	fst         forwardState

	// Long-lived batch buffers (they must survive ws.Reset): trainB is
	// refilled per training step, evalB holds the full-corpus evaluation
	// batch, inferB serves Predict/PredictBatch.
	trainB, evalB, inferB batch

	// second is the replica a split training step runs its second shard
	// on (see trainStep); pass is this model's own share of the step.
	second *Model
	pass   gradPass

	// params caches each component's parameter list, so the per-step
	// "does anything in f learn" checks allocate nothing.
	params struct{ f, g, h, z []*nn.Param }
	// rows is fillBatch's table of the values of the batch being filled.
	rows rowTable

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
	rng := rand.New(rand.NewSource(cfg.Seed))
	act := nn.ActivationByName(cfg.Activation)
	m := &Model{
		Cfg: cfg,
		f: nn.TwoLayerSpec{
			Name: "f", In: 3, Hidden: cfg.ScaleOutHidden, Out: cfg.ScaleOutDim,
			ActHidden: act, ActOut: act, WithBias: true, Init: cfg.Init,
		}.Build(rng),
		g: nn.TwoLayerSpec{
			Name: "g", In: cfg.PropertySize, Hidden: cfg.EncoderHidden, Out: cfg.EncodingDim,
			ActHidden: act, ActOut: act, WithBias: false,
			Dropout: cfg.Dropout, Init: cfg.Init,
		}.Build(rng),
		h: nn.TwoLayerSpec{
			Name: "h", In: cfg.EncodingDim, Hidden: cfg.EncoderHidden, Out: cfg.PropertySize,
			ActHidden: act, ActOut: nn.Tanh{}, WithBias: false,
			Dropout: cfg.Dropout, Init: cfg.Init,
		}.Build(rng),
		z: nn.TwoLayerSpec{
			Name: "z", In: cfg.CombinedDim(), Hidden: cfg.PredictorHidden, Out: 1,
			ActHidden: act, ActOut: nn.Identity{}, WithBias: true, Init: cfg.Init,
		}.Build(rng),
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
// gradients, property table and encoder memo, and a dropout
// generator seeded from the model seed and the shard index. It holds no
// second copy of a weight; its scalers are whatever m's are when a
// training run hands it to a shard.
func (m *Model) replica(shard int) *Model {
	rng := rand.New(rand.NewSource(m.Cfg.Seed + int64(shard)*0x5DEECE66D))
	r := &Model{
		Cfg: m.Cfg,
		f:   m.f.Replica(rng), g: m.g.Replica(rng), h: m.h.Replica(rng), z: m.z.Replica(rng),
		enc: encoding.NewPropertyEncoder(m.Cfg.PropertySize),
		rng: rng,
	}
	r.indexParams()
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

// componentParams exposes each network's parameters for the freeze
// schedules of fine-tuning and the reuse strategies.
func (m *Model) componentParams(name string) []*nn.Param {
	switch name {
	case "f":
		return m.params.f
	case "g":
		return m.params.g
	case "h":
		return m.params.h
	case "z":
		return m.params.z
	default:
		panic("core: unknown component " + name)
	}
}

// Pretrained reports whether the model went through Pretrain.
func (m *Model) Pretrained() bool { return m.pretrained }

// FinetuneSamples reports how many samples the last Finetune on this
// model used (0 when it was never fine-tuned).
func (m *Model) FinetuneSamples() int { return m.finetuneSamples }

// batch is the matrix representation of a set of samples. Its buffers
// are long-lived and refilled in place, so rebuilding a batch of an
// already-seen size allocates nothing.
//
// A corpus is many executions of few contexts, so the property vectors
// of a batch are stored once each: props holds the distinct vectors and
// propRow says which of them every property slot reads. Whatever is a
// function of the vector alone (the encoder's first layer, in eval mode
// the whole encoder) then runs on the distinct rows only.
type batch struct {
	scaleFeat *mat.Dense // B x 3, normalized
	props     *mat.Dense // U x N: each distinct property vector once
	propRow   []int32    // B * propsPer: the row of props a slot reads
	propsPer  int        // property slots per sample: NumEssential + NumOptional
	numOpt    []int      // count of optional properties per sample
	targets   *mat.Dense // B x 1, scaled runtimes
	runtimes  []float64  // raw seconds

	// codes is the encoder output on props (U x M) while codesFixed:
	// Finetune computes it once because its encoder is frozen. The next
	// fillBatch drops it.
	codes      *mat.Dense
	codesFixed bool
}

// ensure shapes the batch buffers for bSize samples and empties props,
// reusing backing storage whenever capacity allows.
func (b *batch) ensure(bSize, propsPer, propSize int) {
	b.scaleFeat = mat.Resized(b.scaleFeat, bSize, 3)
	if b.props == nil {
		b.props = &mat.Dense{}
	}
	b.props.Rows, b.props.Cols, b.props.Data = 0, propSize, b.props.Data[:0]
	if cap(b.propRow) < bSize*propsPer {
		b.propRow = make([]int32, bSize*propsPer)
	}
	b.propRow = b.propRow[:bSize*propsPer]
	b.propsPer = propsPer
	b.codesFixed = false
	b.targets = mat.Resized(b.targets, bSize, 1)
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
func (b *batch) addProp() (int32, []float64) {
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

// rowOf returns the row of b.props holding the vector of value, encoding
// it into a new row on the value's first occurrence in the batch.
func (m *Model) rowOf(b *batch, value string) int32 {
	r, seen := m.rows.rowOf(value, int32(b.props.Rows))
	if !seen {
		_, vec := b.addProp()
		m.enc.EncodeTo(vec, value)
	}
	return r
}

// fillBatch encodes the selected samples into b. idx selects (and
// orders) samples; a nil idx encodes all of them in order, without
// copying any Sample. Optional properties may be fewer than
// cfg.NumOptional; missing slots read one shared all-zero row, which
// contributes nothing to the optional mean.
func (m *Model) fillBatch(b *batch, samples []Sample, idx []int) {
	cfg := m.Cfg
	bSize := len(samples)
	if idx != nil {
		bSize = len(idx)
	}
	propsPer := cfg.NumEssential + cfg.NumOptional
	b.ensure(bSize, propsPer, cfg.PropertySize)
	zeroRow := int32(-1)
	for i := 0; i < bSize; i++ {
		s := &samples[i]
		if idx != nil {
			s = &samples[idx[i]]
		}
		feat := b.scaleFeat.Row(i)
		ScaleOutFeaturesInto(feat, s.ScaleOut)
		m.norm.TransformInPlace(feat)
		slots := b.propRow[i*propsPer : (i+1)*propsPer]
		for k, p := range s.Essential {
			slots[k] = m.rowOf(b, p.Value)
		}
		b.numOpt[i] = len(s.Optional)
		for k, p := range s.Optional {
			slots[cfg.NumEssential+k] = m.rowOf(b, p.Value)
		}
		for k := cfg.NumEssential + len(s.Optional); k < propsPer; k++ {
			if zeroRow < 0 {
				var vec []float64
				zeroRow, vec = b.addProp()
				clear(vec)
			}
			slots[k] = zeroRow
		}
		b.targets.Set(i, 0, m.target.ToScaled(s.RuntimeSec))
		b.runtimes[i] = s.RuntimeSec
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
	e     *mat.Dense // B x F
	codes *mat.Dense // train: (B*P) x M, one row per slot; else U x M, one per distinct vector
	r     *mat.Dense // B x CombinedDim
	pred  *mat.Dense // B x 1 (scaled)
	train bool
}

// code returns the encoder output for property slot s of the batch.
func (st *forwardState) code(s int) []float64 {
	if st.train {
		return st.codes.Row(s)
	}
	return st.codes.Row(int(st.b.propRow[s]))
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
	for i := 0; i < bSize; i++ {
		row := st.r.Row(i)
		copy(row[:cfg.ScaleOutDim], st.e.Row(i))
		off := cfg.ScaleOutDim
		for k := 0; k < cfg.NumEssential; k++ {
			copy(row[off:off+cfg.EncodingDim], st.code(i*b.propsPer+k))
			off += cfg.EncodingDim
		}
		nOpt := b.numOpt[i]
		for k := 0; k < nOpt; k++ {
			code := st.code(i*b.propsPer + cfg.NumEssential + k)
			for j := 0; j < cfg.EncodingDim; j++ {
				row[off+j] += code[j] / float64(nOpt)
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
	b.codes = mat.Resized(b.codes, codes.Rows, codes.Cols)
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
func (m *Model) backward(st *forwardState, predGrad, reconGrad *mat.Dense) {
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
		mat.SliceColsTo(gradE, gradR, 0, cfg.ScaleOutDim)
		m.f.BackwardParams(m.ws, gradE)
	}
	if !aeLearns {
		return
	}
	if !st.train {
		panic("core: the encoder learns only from a training-mode forward pass")
	}
	// Route the code parts of gradR to the slots they were read from.
	gradCodes := m.ws.Get(st.codes.Rows, cfg.EncodingDim)
	for i := 0; i < bSize; i++ {
		row := gradR.Row(i)
		off := cfg.ScaleOutDim
		for k := 0; k < cfg.NumEssential; k++ {
			copy(gradCodes.Row(i*st.b.propsPer+k), row[off:off+cfg.EncodingDim])
			off += cfg.EncodingDim
		}
		nOpt := st.b.numOpt[i]
		for k := 0; k < nOpt; k++ {
			dst := gradCodes.Row(i*st.b.propsPer + cfg.NumEssential + k)
			for j := 0; j < cfg.EncodingDim; j++ {
				dst[j] = row[off+j] / float64(nOpt)
			}
		}
	}
	if reconGrad != nil {
		mat.AddInPlace(gradCodes, reconGrad)
	}
	m.g.BackwardRows(m.ws, gradCodes)
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

// PropertyCodes returns the dense codes the encoder assigns to each
// property, the representation visualized in the paper's Fig. 4: no
// codes for no properties.
func (m *Model) PropertyCodes(props []encoding.Property) [][]float64 {
	if len(props) == 0 {
		return [][]float64{}
	}
	vecs := m.enc.EncodeAll(props)
	in := mat.FromRows(vecs)
	m.borrowScratch()
	defer m.releaseScratch()
	codes := m.g.Forward(m.ws, in, false)
	out := make([][]float64, codes.Rows)
	for i := range out {
		row := make([]float64, codes.Cols)
		copy(row, codes.Row(i))
		out[i] = row
	}
	return out
}

// ReconstructionError returns the mean squared reconstruction error of
// the auto-encoder over the given properties, 0 over none.
func (m *Model) ReconstructionError(props []encoding.Property) float64 {
	if len(props) == 0 {
		return 0
	}
	vecs := m.enc.EncodeAll(props)
	in := mat.FromRows(vecs)
	m.borrowScratch()
	defer m.releaseScratch()
	codes := m.g.Forward(m.ws, in, false)
	recon := m.h.Forward(m.ws, codes, false)
	loss, _ := nn.MSELoss{}.Compute(m.ws, recon, in)
	return loss
}
