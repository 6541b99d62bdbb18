package core

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/mat"
)

// corpusTable is a pre-training corpus encoded once per Pretrain call.
// Every epoch reads the same samples under the same scalers, so nothing
// a step or an evaluation needs from them changes between epochs: a step
// gathers its shard's rows from the table (gatherBatch) instead of
// hashing and encoding property strings, and the evaluation runs the
// network on the corpus's distinct inputs instead of on every sample
// (evalMAE). The table outlives the call, so a later Pretrain on the
// model refills its buffers instead of allocating them.
type corpusTable struct {
	// samples is every sample in corpus order, as fillBatch encodes
	// them: the rows the shards gather, and the runtimes the evaluation
	// scores.
	samples batch
	// inputs is what the evaluation runs forward on, and inputRow[i]
	// the row of it whose prediction is sample i's. Its props are those
	// of samples, in the same order.
	inputs   batch
	inputRow []int32
	// halves are the two row ranges of inputs a split evaluation runs,
	// and pred the predictions of every row of inputs it gathers.
	halves [2]batch
	pred   []float32
	// index finds the distinct inputs while inputs is built: open
	// addressing over inputHash, each slot 0 when empty.
	index []int32
}

// encode fills the table from samples with the model's current scalers.
//
// An input is what a prediction is a function of: the normalized
// scale-out features, the property row of every slot, and how many of
// the optional slots hold a value. A corpus is many repetitions of few
// (context, scale-out) pairs, so its distinct inputs are a fraction of
// its samples. The evaluation must still give every sample the bits a
// pass over the whole corpus gives it, and the asm multiply computes the
// rows of a batch in full groups of mat.RowGroup by another route than
// the last len%mat.RowGroup. So the distinct inputs of the samples in
// full groups take rows of inputs padded to whole groups — the padding
// repeats the last input — and the last len%mat.RowGroup samples
// follow, one row each, to be computed by the tail route as they are in
// the whole-corpus pass.
func (c *corpusTable) encode(m *Model, samples []Sample) {
	all, in := &c.samples, &c.inputs
	m.fillBatch(all, samples, nil)
	n, per := len(samples), all.propsPer
	grouped := n - n%mat.RowGroup

	if cap(c.inputRow) < n {
		c.inputRow = make([]int32, n)
	}
	c.inputRow = c.inputRow[:n]
	size := 1 << bits.Len(uint(2*grouped))
	if cap(c.index) < size {
		c.index = make([]int32, size)
	}
	c.index = c.index[:size]
	clear(c.index)

	// Number the distinct inputs in first-use order; the index holds
	// 1 + the sample that brought each.
	mask := uint64(size - 1)
	distinct := 0
	for i := 0; i < grouped; i++ {
		j := inputHash(all, i) & mask
		for c.index[j] != 0 && !all.sameInput(int(c.index[j]-1), i) {
			j = (j + 1) & mask
		}
		if c.index[j] == 0 {
			c.index[j] = int32(i + 1)
			c.inputRow[i] = int32(distinct)
			distinct++
		} else {
			c.inputRow[i] = c.inputRow[c.index[j]-1]
		}
	}
	padded := (distinct + mat.RowGroup - 1) / mat.RowGroup * mat.RowGroup
	for i := grouped; i < n; i++ {
		c.inputRow[i] = int32(padded + i - grouped)
	}

	in.ensure(padded+n-grouped, per, all.props.Cols, all.props.Rows)
	in.props.Rows = all.props.Rows
	in.props.Data = append(in.props.Data, all.props.Data...)
	next := 0
	for i := 0; i < grouped; i++ {
		if int(c.inputRow[i]) == next {
			in.copySample(next, all, i)
			next++
		}
	}
	for r := distinct; r < padded; r++ {
		in.copySample(r, in, distinct-1)
	}
	for i := grouped; i < n; i++ {
		in.copySample(int(c.inputRow[i]), all, i)
	}
}

// inputHash hashes the input of sample i of b: its feature bits, its
// slots' rows and its optional count, each word folded in by a
// multiply-xorshift round.
func inputHash(b *batch, i int) uint64 {
	h := uint64(b.numOpt[i])
	mix := func(v uint64) {
		h = (h ^ v) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	for _, v := range b.scaleFeat.Row(i) {
		mix(uint64(math.Float32bits(v)))
	}
	for _, r := range b.propRow[i*b.propsPer : (i+1)*b.propsPer] {
		mix(uint64(uint32(r)))
	}
	return h
}

// sameInput reports whether samples i and j of b are one input: equal
// feature bits, slot rows and optional counts.
func (b *batch) sameInput(i, j int) bool {
	if b.numOpt[i] != b.numOpt[j] {
		return false
	}
	fi, fj := b.scaleFeat.Row(i), b.scaleFeat.Row(j)
	for k := range fi {
		if math.Float32bits(fi[k]) != math.Float32bits(fj[k]) {
			return false
		}
	}
	per := b.propsPer
	return slices.Equal(b.propRow[i*per:(i+1)*per], b.propRow[j*per:(j+1)*per])
}

// copySample writes sample j of src into row i of b, whose props must be
// src's.
func (b *batch) copySample(i int, src *batch, j int) {
	per := b.propsPer
	copy(b.scaleFeat.Row(i), src.scaleFeat.Row(j))
	copy(b.propRow[i*per:(i+1)*per], src.propRow[j*per:(j+1)*per])
	b.numOpt[i] = src.numOpt[j]
	b.targets.Data[i] = src.targets.Data[j]
	b.runtimes[i] = src.runtimes[j]
}

// evalMAE is the runtime MAE in seconds over every sample of the corpus,
// the number evalMAEBatch gives on the whole corpus as one batch, bit
// for bit: one forward pass over the distinct inputs, then each sample's
// error in corpus order.
func (m *Model) evalMAE(c *corpusTable) float64 {
	st := m.forward(&c.inputs, false)
	return m.maeSeconds(st.pred.Data, c.inputRow, c.samples.runtimes)
}

// evalMAESplit is evalMAE with the evaluation's rows cut in two at a
// multiple of mat.RowGroup, the second half run on the run's replica —
// on its helper, when the run leased one, concurrently with the first.
// A row's kernels take the same route in its half as in the whole batch
// (a half of full groups, and a half whose tail is the whole batch's),
// so the result is evalMAE's to the bit, whoever ran what.
func (m *Model) evalMAESplit(run *trainRun) float64 {
	c := &m.corpus
	rows := c.inputs.scaleFeat.Rows
	cut := rows / 2 &^ (mat.RowGroup - 1)
	if run.second == nil || cut == 0 {
		return m.evalMAE(c)
	}
	c.pred = slices.Grow(c.pred[:0], rows)[:rows]
	c.halves[0].view(&c.inputs, 0, cut)
	c.halves[1].view(&c.inputs, cut, rows)
	second := &run.second.pass
	second.evalRows, second.evalPred = &c.halves[1], c.pred[cut:]
	if run.helper != nil {
		run.helper.Start(second.evalFn)
	}
	copy(c.pred, m.forward(&c.halves[0], false).pred.Data)
	if run.helper != nil {
		run.helper.Wait()
	} else {
		second.evalFn()
	}
	second.evalRows, second.evalPred = nil, nil
	return m.maeSeconds(c.pred, c.inputRow, c.samples.runtimes)
}

// runEval runs the evaluation pass of the rows pass.evalRows holds and
// copies their predictions to pass.evalPred.
func (m *Model) runEval() {
	copy(m.pass.evalPred, m.forward(m.pass.evalRows, false).pred.Data)
}

// view makes b rows [lo,hi) of src, sharing src's storage and its props.
func (b *batch) view(src *batch, lo, hi int) {
	if b.scaleFeat == nil {
		b.scaleFeat, b.targets = new(mat.DenseF32), new(mat.DenseF32)
	}
	fc, per := src.scaleFeat.Cols, src.propsPer
	*b.scaleFeat = mat.DenseF32{Rows: hi - lo, Cols: fc, Data: src.scaleFeat.Data[lo*fc : hi*fc]}
	*b.targets = mat.DenseF32{Rows: hi - lo, Cols: 1, Data: src.targets.Data[lo:hi]}
	b.props, b.propRow, b.propsPer = src.props, src.propRow[lo*per:hi*per], per
	b.numOpt, b.runtimes = src.numOpt[lo:hi], src.runtimes[lo:hi]
	b.codesFixed = false
}

// rowRemap maps the property rows of a corpus table to the rows of the
// batch being gathered from it. A row is mapped in the current gather
// when its stamp carries gen; moving to the next gather is one
// increment, so nothing is cleared or rebuilt per step.
type rowRemap struct {
	stamps []rowStamp
	gen    uint32
}

type rowStamp struct {
	gen uint32
	row int32
}

// next starts a gather over a table of rows property rows.
func (t *rowRemap) next(rows int) {
	if len(t.stamps) < rows {
		t.stamps = make([]rowStamp, rows)
	}
	if t.gen++; t.gen == 0 { // wrapped: generation 0 marks a never-used stamp
		clear(t.stamps)
		t.gen = 1
	}
}

// gatherBatch fills b with the samples of the corpus table c that idx
// selects, in idx's order: what fillBatch(b, samples, idx) builds, field
// for field and bit for bit. Features, targets and runtimes are copied;
// each slot's corpus row is mapped to a row of b in first-use order,
// which is the order fillBatch meets the values in.
func (m *Model) gatherBatch(b *batch, c *batch, idx []int) {
	per := c.propsPer
	// A slot reads a corpus row: no more rows than slots or than those.
	b.ensure(len(idx), per, c.props.Cols, min(len(idx)*per, c.props.Rows))
	t := &m.remap
	t.next(c.props.Rows)
	fc, pc := c.scaleFeat.Cols, c.props.Cols
	for i, s := range idx {
		copy(b.scaleFeat.Data[i*fc:i*fc+fc], c.scaleFeat.Data[s*fc:s*fc+fc])
		dst := b.propRow[i*per : (i+1)*per]
		for k, r := range c.propRow[s*per : (s+1)*per] {
			st := &t.stamps[r]
			if st.gen != t.gen {
				row, vec := b.addProp()
				copy(vec, c.props.Data[int(r)*pc:int(r)*pc+pc])
				*st = rowStamp{gen: t.gen, row: row}
			}
			dst[k] = st.row
		}
		b.numOpt[i] = c.numOpt[s]
		b.targets.Data[i] = c.targets.Data[s]
		b.runtimes[i] = c.runtimes[s]
	}
}
