package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/parallel"
)

// TestShardedStepMatchesWholeBatch pins the data-parallel step against
// the unsharded oracle: a mini-batch cut in two, each shard run on its
// own replica and the gradients summed by the shards' share of the batch,
// gives the losses, predictions and every parameter gradient of one pass
// over the whole batch to closeTo's bound (summation order is all that
// differs).
// With dropout on the shards draw their masks from their own generators,
// so the reference is the oracle run per shard under that shard's masks
// and summed with the same weights. Covered: an even cut, an odd one, the
// 16-sample tail of an 80-sample corpus at batch 64, a batch below the
// split minimum (one shard, the same loop) and samples that leave
// optional slots empty.
func TestShardedStepMatchesWholeBatch(t *testing.T) {
	corpus := syntheticSamples(5, []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	sparse := syntheticSamples(5, []int{2, 4, 6, 8, 10})
	for i := range sparse {
		sparse[i].Optional = sparse[i].Optional[:i%4%3] // 0, 1 or 2 of 3
	}
	for _, tc := range []struct {
		name     string
		samples  []Sample
		from, to int // the mini-batch: samples [from, to) of a shuffled index
		cut      int // samples in the first shard
	}{
		{"even", corpus, 0, 24, 12},
		{"odd", corpus, 3, 20, 9},
		{"tail", corpus, 64, 80, 8},
		{"below-minimum", corpus, 0, 15, 15},
		{"empty-slots", sparse, 2, 23, 11},
	} {
		for _, dropout := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("%s/dropout=%v", tc.name, dropout), func(t *testing.T) {
				cfg := allocConfig()
				cfg.Dropout = dropout
				cfg.GradClipNorm = 0
				cfg.BatchSize = 64
				build := func() *Model {
					m, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Two epochs of the same deterministic training leave
					// the models with equal weights, scalers and — in the
					// model and in its replica — generator states.
					if _, err := m.Pretrain(tc.samples); err != nil {
						t.Fatal(err)
					}
					return m
				}
				got, want := build(), build()
				idx := rand.New(rand.NewSource(5)).Perm(len(tc.samples))[tc.from:tc.to]
				n := len(idx)
				if cut := shardCut(n); cut != tc.cut {
					t.Fatalf("a batch of %d is cut at %d, want %d", n, cut, tc.cut)
				}
				batch := make([]Sample, n)
				for i, j := range idx {
					batch[i] = tc.samples[j]
				}

				run := got.pretrainRun(tc.samples)
				loss, recon := stepGrads(got, run, idx)
				var pred []float64
				for _, v := range got.fst.pred.Data {
					pred = append(pred, float64(v))
				}
				if split := tc.cut < n; split {
					for _, v := range got.second.fst.pred.Data {
						pred = append(pred, float64(v))
					}
				} else if run.splitSteps != 0 {
					t.Fatalf("a batch of %d was cut", n)
				}
				if len(pred) != n {
					t.Fatalf("the shards predicted %d samples of %d", len(pred), n)
				}

				// The oracle per shard, under that shard's masks.
				w0 := float64(tc.cut) / float64(n)
				wantPred, wantLoss, wantRecon := referenceStep(want, batch[:tc.cut], true)
				wantLoss, wantRecon = w0*wantLoss, w0*wantRecon
				wantGrads := want.Params()
				if tc.cut < n {
					p1, l1, r1 := referenceStep(want.second, batch[tc.cut:], true)
					wantPred = append(wantPred, p1...)
					wantLoss, wantRecon = wantLoss+(1-w0)*l1, wantRecon+(1-w0)*r1
					reduceGrads(wantGrads, want.second.Params(), float32(w0), float32(1-w0))
				}
				check := func(oracle string, wantPred []float64, wantLoss, wantRecon float64, wantGrads []*nn.Param) {
					t.Helper()
					closeTo(t, oracle+": runtime loss", loss, wantLoss)
					closeTo(t, oracle+": reconstruction loss", recon, wantRecon)
					for i, p := range pred {
						closeTo(t, fmt.Sprintf("%s: prediction %d", oracle, i), p, wantPred[i])
					}
					for k, p := range got.Params() {
						for i, g := range p.Grad.Data {
							closeTo(t, fmt.Sprintf("%s: %s grad[%d]", oracle, p.Name, i), float64(g), float64(wantGrads[k].Grad.Data[i]))
						}
					}
				}
				check("per shard", wantPred, wantLoss, wantRecon, wantGrads)

				if dropout == 0 {
					whole := build()
					p, l, r := referenceStep(whole, batch, true)
					check("whole batch", p, l, r, whole.Params())
				}
			})
		}
	}
}

// shardCorpus is 85 samples of five contexts: at batch 32 an epoch is two
// full batches (16 + 16) and a tail of 21 (11 + 10).
func shardCorpus() []Sample {
	return syntheticSamples(5, []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
}

// pretrainShards pre-trains a fresh model for 30 epochs on shardCorpus at
// batch 32: 90 steps, each cut in two.
func pretrainShards(t *testing.T, seed int64) (*Model, *TrainReport) {
	t.Helper()
	cfg := testConfig()
	cfg.PretrainEpochs = 30
	cfg.BatchSize = 32
	cfg.Seed = seed
	m, err := New(cfg)
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	rep, err := m.Pretrain(shardCorpus())
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	if m.pass.run != nil || m.second.pass.run != nil {
		t.Error("the trained model still holds its training run, and with it the corpus")
	}
	if rep.Shards != 2 || rep.SplitSteps != 30*3 || rep.HelperSteps > rep.SplitSteps {
		t.Errorf("report says %d shards, %d split steps, %d of them on a helper; want 2, 90 and no more",
			rep.Shards, rep.SplitSteps, rep.HelperSteps)
	}
	return m, rep
}

// setProcs sets GOMAXPROCS until the test ends.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestPretrainIndependentOfGOMAXPROCS: the same seed trains bit-identical
// parameters on one core, where the caller runs both shards of every
// step, on two and on four, where a leased helper runs the second
// whenever it gets to it first, and on two with the only helper taken by
// somebody else.
func TestPretrainIndependentOfGOMAXPROCS(t *testing.T) {
	setProcs(t, 1)
	ref, rep := pretrainShards(t, 3)
	if rep.HelperSteps != 0 {
		t.Fatalf("%d steps ran on a helper at GOMAXPROCS=1", rep.HelperSteps)
	}
	// A helper that keeps missing offers is woken less eagerly, so with
	// other packages' tests taking the cores one short pre-training can
	// miss them all: up to ten are run at each setting, every one must
	// train the reference's bits, and one at least must have run a step
	// on its helper.
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		helped, split := false, 0
		for try := 0; try < 10 && !helped; try++ {
			m, rep := pretrainShards(t, 3)
			if m == nil {
				t.FailNow()
			}
			sameModel(t, ref, m)
			helped, split = rep.HelperSteps > 0, rep.SplitSteps
		}
		if !helped {
			t.Fatalf("GOMAXPROCS=%d: none of %d split steps of 10 pre-trainings ran on a helper", procs, split)
		}
	}

	runtime.GOMAXPROCS(2)
	taken := parallel.Lease()
	if taken == nil {
		t.Fatal("no helper to take at GOMAXPROCS=2")
	}
	defer taken.Release()
	m, rep := pretrainShards(t, 3)
	if rep.HelperSteps != 0 {
		t.Fatalf("%d steps ran on a helper while the only one was leased elsewhere", rep.HelperSteps)
	}
	sameModel(t, ref, m)
}

// TestConcurrentPretrainsMatchSolo runs two pre-trainings side by side
// through parallel.Map, the way hyperopt trials and experiment targets
// run: each ends with the parameters of its solo run. With as many
// workers as cores neither gets a helper (Map's second worker holds the
// one core of the budget); with cores to spare both may.
func TestConcurrentPretrainsMatchSolo(t *testing.T) {
	setProcs(t, 1)
	solo := [2]*Model{}
	for i := range solo {
		solo[i], _ = pretrainShards(t, int64(10+i))
	}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		type outcome struct {
			m   *Model
			rep *TrainReport
		}
		for i, o := range parallel.Map(2, 2, func(i int) outcome {
			m, rep := pretrainShards(t, int64(10+i))
			return outcome{m, rep}
		}) {
			if o.m == nil {
				t.FailNow()
			}
			if procs == 2 && o.rep.HelperSteps != 0 {
				t.Fatalf("two at once on two cores: %d steps ran on a helper", o.rep.HelperSteps)
			}
			sameModel(t, solo[i], o.m)
		}
	}
}

// TestPretrainReturnsItsHelper: a Pretrain that fails before it starts
// takes no helper, and one that runs to the end gives its helper back —
// nothing is left leased or polling, and the process holds the one
// parked helper goroutine GOMAXPROCS=2 allows however many pre-trainings
// ran.
func TestPretrainReturnsItsHelper(t *testing.T) {
	setProcs(t, 2)
	// The precondition: a pre-training with a step on its helper. A
	// helper that keeps missing offers is woken less eagerly, so with
	// other packages' tests taking the cores one short pre-training can
	// miss them all; up to ten are run.
	helped := false
	for try := 0; try < 10 && !helped; try++ {
		_, rep := pretrainShards(t, 1)
		if rep == nil {
			t.FailNow()
		}
		helped = rep.HelperSteps > 0
	}
	if !helped {
		t.Fatal("no step of 10 pre-trainings ran on a helper at GOMAXPROCS=2")
	}
	goroutines := runtime.NumGoroutine()

	bad := shardCorpus()
	bad[40].Essential = bad[40].Essential[:2]
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := m.Pretrain(bad); err == nil {
			t.Fatal("a sample with two essential properties was accepted")
		}
		pretrainShards(t, 1)
	}
	for deadline := time.Now().Add(5 * time.Second); parallel.Spinning() != 0; time.Sleep(parallel.SpinBudget / 4) {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers polling after Pretrain returned", parallel.Spinning())
		}
	}
	h := parallel.Lease()
	if h == nil {
		t.Fatal("Pretrain kept its helper's core")
	}
	h.Release()
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Fatalf("%d goroutines after 40 more pre-trainings, %d before", n, goroutines)
	}
}
