package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/parallel"
)

// reuseShapedCorpus is the sgd corpus of the simulated C3O data minus
// six of its contexts: 24 contexts x 6 scale-outs x 5 repetitions, the
// shape the general model of the paper's reuse flow pre-trains on.
func reuseShapedCorpus(t testing.TB) []Sample {
	t.Helper()
	ds := dataset.GenerateC3O(dataset.SimConfig{Seed: 1})
	held := map[string]bool{}
	for _, c := range ds.Contexts("sgd")[:6] {
		held[c.ID] = true
	}
	var execs []dataset.Execution
	for _, e := range ds.ForJob("sgd") {
		if !held[e.Context.ID] {
			execs = append(execs, e)
		}
	}
	samples := SamplesFromExecutions(execs)
	if len(samples) != 720 {
		t.Fatalf("reuse-shaped corpus has %d samples, want 24 x 6 x 5 = 720", len(samples))
	}
	return samples
}

// sameBits fails the test unless a and b hold the same float64 bits.
func sameBits[T float32 | float64](t *testing.T, what string, a, b []T) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values, want %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, a[i], b[i])
		}
	}
}

// TestGatherMatchesFillBatch: a batch gathered from the corpus table is
// the batch fillBatch encodes from the samples, field for field and bit
// for bit — features, targets, runtimes, optional counts, the distinct
// property vectors in their first-use order and every slot's row — for
// random mini-batches with repeated samples, on a corpus whose samples
// leave optional slots empty, gathered one after another into one batch.
func TestGatherMatchesFillBatch(t *testing.T) {
	cfg := allocConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(5, []int{2, 4, 6, 8, 10})
	for i := range samples {
		samples[i].Optional = samples[i].Optional[:i%4%3] // 0, 1 or 2 of 3
	}
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var got batch
	for trial := 0; trial < 20; trial++ {
		idx := make([]int, 1+rng.Intn(2*len(samples)))
		for i := range idx {
			idx[i] = rng.Intn(len(samples))
		}
		var want batch
		m.fillBatch(&want, samples, idx)
		m.gatherBatch(&got, &m.corpus.samples, idx)
		sameBits(t, "scaleFeat", got.scaleFeat.Data, want.scaleFeat.Data)
		sameBits(t, "targets", got.targets.Data, want.targets.Data)
		sameBits(t, "runtimes", got.runtimes, want.runtimes)
		if got.props.Rows != want.props.Rows || got.props.Cols != want.props.Cols {
			t.Fatalf("props %dx%d, want %dx%d", got.props.Rows, got.props.Cols, want.props.Rows, want.props.Cols)
		}
		sameBits(t, "props", got.props.Data, want.props.Data)
		if got.propsPer != want.propsPer || !slices.Equal(got.propRow, want.propRow) {
			t.Fatalf("slot rows %v (%d a sample), want %v (%d)", got.propRow, got.propsPer, want.propRow, want.propsPer)
		}
		if !slices.Equal(got.numOpt, want.numOpt) {
			t.Fatalf("optional counts %v, want %v", got.numOpt, want.numOpt)
		}
		if got.codesFixed {
			t.Fatal("a gathered batch carries fixed codes")
		}
	}
}

// TestCorpusEvalMatchesWholeCorpus: pre-training's evaluation, one
// forward pass over the corpus's distinct inputs, gives every sample the
// prediction bits a forward pass over the whole corpus gives it, and so
// the same MAE bit for bit. Covered: the reuse-shaped corpus (720
// samples, 144 distinct inputs), a corpus whose inputs are all distinct,
// the reuse corpus less one sample (the last three fall in the multiply's
// tail route), and one of three samples (tail route only). The split
// evaluation pre-training runs, half on the replica (on a helper when
// one is free), gives the same MAE bit for bit.
func TestCorpusEvalMatchesWholeCorpus(t *testing.T) {
	reuse := reuseShapedCorpus(t)
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 3
	for _, tc := range []struct {
		name    string
		samples []Sample
		inputs  int // rows of the evaluation batch
	}{
		{"reuse", reuse, 144},
		{"few-values", fewValuesCorpus(), 256},
		{"reuse-less-one", reuse[:719], 144 + 3},
		{"three", reuse[:3], 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Pretrain(tc.samples); err != nil {
				t.Fatal(err)
			}
			c := &m.corpus
			if rows := c.inputs.scaleFeat.Rows; rows != tc.inputs {
				t.Fatalf("evaluation batch has %d rows, want %d", rows, tc.inputs)
			}
			m.borrowScratch()
			defer m.releaseScratch()
			whole := slices.Clone(m.forward(&c.samples, false).pred.Data)
			distinct := m.forward(&c.inputs, false).pred.Data
			for i, r := range c.inputRow {
				if math.Float32bits(distinct[r]) != math.Float32bits(whole[i]) {
					t.Fatalf("sample %d: prediction %v from input row %d, %v from the whole corpus", i, distinct[r], r, whole[i])
				}
			}
			want := m.evalMAEBatch(&c.samples)
			if got := m.evalMAE(c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("evaluation MAE %v, whole-corpus MAE %v", got, want)
			}
			run := m.pretrainRun(tc.samples)
			if run.second != nil {
				run.second.borrowScratch()
				defer run.second.releaseScratch()
			}
			run.helper = parallel.Lease()
			defer run.helper.Release()
			if got := m.evalMAESplit(run); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("split evaluation MAE %v, whole-corpus MAE %v", got, want)
			}
		})
	}
}

// TestRowRemapGenerationWrap: a stamp written 2^32 gathers ago carries
// the generation the counter comes round to; the wrap clears the stamps
// so that it is not taken for a row of the current gather.
func TestRowRemapGenerationWrap(t *testing.T) {
	var rm rowRemap
	rm.next(4)
	rm.stamps[2] = rowStamp{gen: rm.gen, row: 7}
	rm.gen = ^uint32(0)
	rm.next(4)
	if rm.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", rm.gen)
	}
	if st := rm.stamps[2]; st.gen == rm.gen {
		t.Fatalf("stamp %+v of an earlier gather is live after the wrap", st)
	}
}
