package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
)

// A paired comparison answers "do these two ways of building Bellamy
// predict differently?" the way a claim about trained models has to be
// settled: on the same targets, splits and model seeds for both, over
// many seeds, as the distribution of per-seed differences — not as two
// single-seed numbers whose gap may be the seed's.

// BuildFunc pre-trains the base model of one arm of a paired comparison
// from cfg (whose Seed the comparison sets) on the cross-context corpus.
type BuildFunc func(cfg core.Config, corpus []core.Sample) (*core.Model, error)

// PairedConfig parameterizes RunPaired.
type PairedConfig struct {
	// Job is the algorithm whose contexts are the targets.
	Job string
	// Seeds drive one comparison unit each: the target context, its
	// splits and the model seed both arms build with.
	Seeds []int64
	// Points is k, the training size every split fine-tunes on.
	Points int
	// MaxSplits bounds the splits per seed.
	MaxSplits int
	// Model is the configuration both arms build and fine-tune with.
	Model core.Config
}

// PairedStat summarizes the per-seed differences B − A of one metric.
type PairedStat struct {
	// N is the number of seeds, MeanDiff the mean of B − A over them and
	// SD the differences' sample standard deviation.
	N        int
	MeanDiff float64
	SD       float64
	// Lower and Higher count the seeds where B's value is below and
	// above A's; ties count for neither.
	Lower, Higher int
}

// Differs reports whether B's values are distinguishable from A's: the
// mean difference is more than three standard errors from zero, or every
// seed of at least eight moved the same way (a two-sided sign test below
// the 1 % level).
func (s PairedStat) Differs() bool {
	if s.N == 0 {
		return false
	}
	if math.Abs(s.MeanDiff) > 3*s.SD/math.Sqrt(float64(s.N)) {
		return true
	}
	return s.N >= 8 && (s.Lower == s.N || s.Higher == s.N)
}

// String formats the statistic as "mean ± sd, lower/higher of n".
func (s PairedStat) String() string {
	return fmt.Sprintf("%+.4g ± %.3g, B lower in %d and higher in %d of %d", s.MeanDiff, s.SD, s.Lower, s.Higher, s.N)
}

// SeedMRE is one arm's mean relative errors on one seed's splits.
type SeedMRE struct {
	Interp, Extrap float64
}

// PairedResult is the outcome of RunPaired: per-seed errors of each arm
// and the paired statistics of mre_interp and mre_extrap.
type PairedResult struct {
	A, B           []SeedMRE
	Interp, Extrap PairedStat
}

// RunPaired compares two ways of building the pre-trained model. For
// each seed it draws a target context of cfg.Job, the splits of
// cfg.Points samples of it and a model seed; each arm pre-trains on the
// job's other contexts, and on every split a clone of its model is
// fine-tuned (partial unfreeze) and predicts the split's interpolation
// and extrapolation points. The arm's mre_interp and mre_extrap for the
// seed are the mean relative errors over the splits.
//
// The arms run one after the other, A then B, each built and evaluated
// before the other is built, so a BuildFunc may set process-wide state
// (a kernel family, say) that its own fine-tuning then runs under.
func RunPaired(ds *dataset.Dataset, cfg PairedConfig, a, b BuildFunc) (*PairedResult, error) {
	if len(cfg.Seeds) == 0 || cfg.Points <= 0 || cfg.MaxSplits <= 0 {
		return nil, fmt.Errorf("experiments: a paired comparison needs seeds, Points > 0 and MaxSplits > 0")
	}
	res := &PairedResult{}
	for _, seed := range cfg.Seeds {
		rng := rand.New(rand.NewSource(seed))
		targets, err := chooseTargetContexts(ds, cfg.Job, 1, rng)
		if err != nil {
			return nil, err
		}
		target := targets[0]
		corpus := core.SamplesFromExecutions(dataset.FilterExcludeContext(ds, target))
		splits, err := GenerateSplits(ds.ForContext(target.ID), cfg.Points, cfg.MaxSplits, rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d, context %s: %w", seed, target.ID, err)
		}
		mc := cfg.Model
		mc.Seed = rng.Int63()
		for _, arm := range []struct {
			build BuildFunc
			out   *[]SeedMRE
		}{{a, &res.A}, {b, &res.B}} {
			base, err := arm.build(mc, corpus)
			if err != nil {
				return nil, fmt.Errorf("experiments: seed %d: building a model: %w", seed, err)
			}
			runner := bellamyRunner(MethodBellamyFull, base, mc, target, core.FinetuneOptions{Strategy: core.StrategyPartialUnfreeze})
			var interp, extrap []float64
			for _, sp := range splits {
				m, ok := runSplit(runner, cfg.Job, target.ID, sp)
				if !ok {
					return nil, fmt.Errorf("experiments: seed %d: a split of %s did not fit", seed, target.ID)
				}
				if m.HasInterp {
					interp = append(interp, m.InterpRelErr)
				}
				if m.HasExtra {
					extrap = append(extrap, m.ExtraRelErr)
				}
			}
			*arm.out = append(*arm.out, SeedMRE{Interp: Mean(interp), Extrap: Mean(extrap)})
		}
	}
	res.Interp = pairedStat(res.A, res.B, func(s SeedMRE) float64 { return s.Interp })
	res.Extrap = pairedStat(res.A, res.B, func(s SeedMRE) float64 { return s.Extrap })
	return res, nil
}

// pairedStat summarizes metric(b[i]) − metric(a[i]) over the seeds.
func pairedStat(a, b []SeedMRE, metric func(SeedMRE) float64) PairedStat {
	d := make([]float64, len(a))
	s := PairedStat{N: len(a)}
	for i := range a {
		d[i] = metric(b[i]) - metric(a[i])
		switch {
		case d[i] < 0:
			s.Lower++
		case d[i] > 0:
			s.Higher++
		}
	}
	s.MeanDiff, s.SD = Mean(d), Std(d)
	return s
}
