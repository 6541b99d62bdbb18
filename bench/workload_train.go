package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
)

// pretrainCallEpochs is the length of the timed Pretrain calls.
const pretrainCallEpochs = 10

// trainReuse is the paper's two-step flow through the public API of
// core, dataset and baselines, with no server: pre-train a general
// model for one C3O job on every context but the targets, then clone
// and fine-tune it on k samples of each target and predict held-out
// scale-outs. f64 GEMM, backward passes and Adam do all the work.
type trainReuse struct {
	env     *benchEnv
	in      *inputs
	general *core.Model
	passes  int
	// first holds the predictions of the first pass; every later pass
	// must reproduce them bit for bit (same seed, same work).
	first []fitOutcome
	// baseline errors of the last pass, for reference beside Bellamy's.
	nnlsInterp, bellInterp []float64
}

// fitOutcome is what one fine-tune predicted for its split's test
// points (0 where the split has none).
type fitOutcome struct{ interp, extrap float64 }

func newTrainReuse(env *benchEnv) *trainReuse { return &trainReuse{env: env} }

func (w *trainReuse) Name() string { return wlTrainReuse }

func (w *trainReuse) modelConfig(epochs int) core.Config {
	cfg := core.DefaultConfig()
	cfg.PretrainEpochs = epochs
	cfg.Seed = w.env.seed
	return cfg
}

// Setup generates the datasets and pre-trains the general model the
// fine-tunes start from.
func (w *trainReuse) Setup() error {
	w.in = generateInputs(w.env.seed, partReuse)
	m, err := core.New(w.modelConfig(w.env.qualityEpochs))
	if err != nil {
		return err
	}
	if _, err := m.Pretrain(w.in.ReuseCorpus); err != nil {
		return fmt.Errorf("bench: pre-training the general %s model: %w", reuseJob, err)
	}
	w.general, w.passes, w.first = m, 0, nil
	return nil
}

func (w *trainReuse) Teardown() error { return nil }
func (w *trainReuse) Boundary() error { return nil }

// Run repeats whole passes over the fixed work until d has elapsed, so
// every round's medians are taken over the same multiset of fits.
func (w *trainReuse) Run(d time.Duration) *recorder {
	rec := newRecorder()
	for deadline := time.Now().Add(d); ; {
		w.pass(rec)
		if !time.Now().Before(deadline) {
			return rec
		}
	}
}

// pass is one unit of identical work: four timed 10-epoch pre-training
// calls on the general corpus, then every fit of the seeded set — clone,
// fine-tune, predict the test points — and the two baselines on the same
// splits.
func (w *trainReuse) pass(rec *recorder) {
	for i := 0; i < 4; i++ {
		rec.attempted++
		start := time.Now()
		m, err := core.New(w.modelConfig(pretrainCallEpochs))
		if err == nil {
			_, err = m.Pretrain(w.in.ReuseCorpus)
		}
		if err != nil {
			rec.failf("pretrain: %v", err)
			continue
		}
		rec.observe("pretrain_epoch", time.Since(start)/pretrainCallEpochs)
	}

	outcomes := make([]fitOutcome, len(w.in.ReuseFits))
	w.nnlsInterp, w.bellInterp = w.nnlsInterp[:0], w.bellInterp[:0]
	for i, f := range w.in.ReuseFits {
		rec.attempted++
		start := time.Now()
		m, err := w.general.Clone()
		if err == nil {
			_, err = m.Finetune(core.SamplesFromExecutions(f.Split.Train), core.FinetuneOptions{})
		}
		if err != nil {
			rec.failf("finetune %s k=%d: %v", f.Target.ID, f.K, err)
			continue
		}
		rec.observe("finetune", time.Since(start))
		ess, opt := f.Target.EssentialProps(), f.Target.OptionalProps()
		if e := f.Split.Interp; e != nil {
			outcomes[i].interp, err = m.Predict(e.ScaleOut, ess, opt)
		}
		if e := f.Split.Extra; e != nil && err == nil {
			outcomes[i].extrap, err = m.Predict(e.ScaleOut, ess, opt)
		}
		if err != nil {
			rec.failf("predict %s k=%d: %v", f.Target.ID, f.K, err)
			continue
		}
		w.fitBaselines(f, rec)
	}
	w.passes++
	if w.first == nil {
		w.first = outcomes
		return
	}
	for i, o := range outcomes {
		if o != w.first[i] {
			rec.failf("fit %d predicted %v, the first pass %v: training is not deterministic", i, o, w.first[i])
			return
		}
	}
}

// fitBaselines fits Ernest (NNLS) and Bell on the split's training
// points: the paper's fit-time comparison, and a quality reference.
func (w *trainReuse) fitBaselines(f reuseFit, rec *recorder) {
	points := make([]baselines.Point, len(f.Split.Train))
	for i, e := range f.Split.Train {
		points[i] = baselines.Point{ScaleOut: e.ScaleOut, Runtime: e.RuntimeSec}
	}
	for _, b := range []struct {
		op   string
		p    baselines.Predictor
		errs *[]float64
	}{{"nnls_fit", baselines.NewErnest(), &w.nnlsInterp}, {"bell_fit", baselines.NewBell(), &w.bellInterp}} {
		start := time.Now()
		if err := b.p.Fit(points); err != nil {
			continue // a baseline that cannot fit k points is not this system's failure
		}
		rec.observe(b.op, time.Since(start))
		if e := f.Split.Interp; e != nil && f.K == qualityK {
			if pred, err := b.p.Predict(e.ScaleOut); err == nil {
				*b.errs = append(*b.errs, experiments.RelErr(pred, e.RuntimeSec))
			}
		}
	}
}

func (w *trainReuse) Report(res *WorkloadResult, rounds []*recorder, roundDur time.Duration) {
	ps := reduceRounds(opRounds(rounds, "pretrain_epoch"), time.Millisecond, 0.9)
	res.addStat("pretrain_epoch_p50_ms", ps)
	fs := reduceRounds(opRounds(rounds, "finetune"), time.Millisecond, 0.99)
	res.addStat("finetune_p50_ms", fs)
	res.addLayer("driver.finetune_p99_ms", "ms", fs.Tail, fs.Samples)

	var interp, extrap []float64
	for i, f := range w.in.ReuseFits {
		if f.K != qualityK || w.first == nil {
			continue
		}
		if e := f.Split.Interp; e != nil {
			interp = append(interp, experiments.RelErr(w.first[i].interp, e.RuntimeSec))
		}
		if e := f.Split.Extra; e != nil {
			extrap = append(extrap, experiments.RelErr(w.first[i].extrap, e.RuntimeSec))
		}
	}
	res.addE2EValue("mre_interp", meanOf(interp), len(interp))
	res.addE2EValue("mre_extrap", meanOf(extrap), len(extrap))
	if m := meanOf(interp); !(m < 0.5) {
		res.fail("train-reuse: mre_interp %.3f, a fine-tuned model must stay below 0.5", m)
	}

	res.addLayer("baselines.nnls_fit_us", "us", reduceRounds(opRounds(rounds, "nnls_fit"), time.Microsecond, 0.99).Value, fs.Samples)
	res.addLayer("baselines.bell_fit_us", "us", reduceRounds(opRounds(rounds, "bell_fit"), time.Microsecond, 0.99).Value, fs.Samples)
	res.addLayer("baselines.nnls_mre_interp", "ratio", meanOf(w.nnlsInterp), len(w.nnlsInterp))
	res.addLayer("baselines.bell_mre_interp", "ratio", meanOf(w.bellInterp), len(w.bellInterp))
	res.addLayer("driver.train_passes", "count", float64(w.passes), w.passes)
	if rss, err := procRSSPeakMB(os.Getpid()); err == nil {
		res.addLayer("driver.self_rss_mb", "MB", rss, 1)
	}
}
