package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Config parameterizes the cross-context, cross-environment and
// allocation experiments; Kinds[kind].Config returns each at a budget.
type Config struct {
	// Seed drives context choice, split sampling and model init.
	Seed int64
	// Jobs to evaluate; nil selects every job of the target dataset.
	Jobs []string
	// ContextsPerJob is the number of randomly chosen target contexts
	// (paper: 7, each node type present at least once). The
	// cross-environment experiment has one context per job.
	ContextsPerJob int
	// MaxSplits bounds the unique splits per training size.
	MaxSplits int
	// PointCounts are the training sizes (paper: 1..6). The cross-context
	// and cross-environment experiments add the zero-shot k = 0; the
	// allocation experiment needs k >= 1, as the baselines cannot
	// allocate zero-shot.
	PointCounts []int
	// DeadlineFactors scale a context's best achievable mean runtime into
	// the allocation experiment's SLO deadlines: 1.2 is a tight SLO, 2.0
	// a loose one.
	DeadlineFactors []float64
	// Model is the Bellamy configuration; its epoch counts are the
	// pre-training and fine-tuning budgets.
	Model core.Config
}

// baselineRunners are the NNLS (Ernest) and Bell runners every
// experiment compares against.
func baselineRunners() []Runner { return []Runner{{Method: MethodNNLS}, {Method: MethodBell}} }

// CrossContextPlan plans the ad hoc cross-context experiment (§IV-C1; Fig.
// 5, 6, 7 and the fit times) on a C3O-style dataset. Each target context
// is predicted by NNLS, Bell, a local Bellamy model, and Bellamy
// fine-tuned from models pre-trained on the job's other contexts
// ("full") and on the dissimilar ones only ("filtered").
func CrossContextPlan(ds *dataset.Dataset, cfg Config) (Plan, error) {
	return contextUnits(ds, cfg, Unit{
		Model: cfg.Model, PointCounts: append([]int{0}, cfg.PointCounts...), MaxSplits: cfg.MaxSplits,
		Bases: []Base{{Name: "full", Corpus: OtherContexts}, {Name: "filtered", Corpus: DissimilarContexts}},
		Runners: append(baselineRunners(),
			Runner{Method: MethodBellamyLocal, Strategy: core.StrategyLocal},
			Runner{Method: MethodBellamyFiltered, Base: "filtered", Strategy: core.StrategyPartialUnfreeze},
			Runner{Method: MethodBellamyFull, Base: "full", Strategy: core.StrategyPartialUnfreeze}),
	})
}

// CrossEnvPlan plans the ad hoc cross-environment experiment (§IV-C2, Fig.
// 8): per job, one model pre-trained on the public-cloud C3O traces is
// reused on the single context of the private-cluster Bell traces under
// each reuse strategy, against NNLS, Bell and a local Bellamy model. Run
// the plan on bell.
func CrossEnvPlan(c3o, bell *dataset.Dataset, cfg Config) (Plan, error) {
	if cfg.MaxSplits <= 0 {
		return nil, fmt.Errorf("experiments: MaxSplits must be positive")
	}
	unit := Unit{
		Source: c3o, Model: cfg.Model, PointCounts: append([]int{0}, cfg.PointCounts...), MaxSplits: cfg.MaxSplits,
		Bases: []Base{{Name: "c3o", Corpus: SourceJob}},
		Runners: append(baselineRunners(),
			Runner{Method: MethodBellamyLocal, Strategy: core.StrategyLocal},
			Runner{Method: MethodBellamyPartialUnfreeze, Base: "c3o", Strategy: core.StrategyPartialUnfreeze},
			Runner{Method: MethodBellamyFullUnfreeze, Base: "c3o", Strategy: core.StrategyFullUnfreeze},
			Runner{Method: MethodBellamyPartialReset, Base: "c3o", Strategy: core.StrategyPartialReset},
			Runner{Method: MethodBellamyFullReset, Base: "c3o", Strategy: core.StrategyFullReset}),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var plan Plan
	for _, job := range jobsOf(bell, cfg) {
		targets := bell.Contexts(job)
		if len(targets) == 0 {
			return nil, fmt.Errorf("experiments: job %q absent from bell dataset", job)
		}
		if len(c3o.ForJob(job)) == 0 {
			return nil, fmt.Errorf("experiments: job %q absent from c3o dataset", job)
		}
		unit.Job, unit.Target, unit.Seed = job, targets[0], rng.Int63()
		plan = append(plan, unit)
	}
	return plan, nil
}

// AllocationPlan plans the allocation-quality experiment on a C3O-style
// dataset: how well each runtime model, driven through the allocation
// engine, picks the cheapest configuration that meets a deadline — the
// end-to-end question the paper motivates runtime prediction with. Each
// split's fitted NNLS, Bell and fine-tuned Bellamy model sweeps the
// context's true scale-out grid, and the chosen configuration is scored
// against the ground-truth oracle.
func AllocationPlan(ds *dataset.Dataset, cfg Config) (Plan, error) {
	if len(cfg.DeadlineFactors) == 0 {
		return nil, fmt.Errorf("experiments: DeadlineFactors must be set")
	}
	for _, k := range cfg.PointCounts {
		if k < 1 {
			return nil, fmt.Errorf("experiments: allocation PointCounts must be >= 1, got %d", k)
		}
	}
	return contextUnits(ds, cfg, Unit{
		Model: cfg.Model, PointCounts: cfg.PointCounts, MaxSplits: cfg.MaxSplits, DeadlineFactors: cfg.DeadlineFactors,
		Bases:   []Base{{Name: "full", Corpus: OtherContexts}},
		Runners: append(baselineRunners(), Runner{Method: MethodBellamyFull, Base: "full", Strategy: core.StrategyPartialUnfreeze}),
	})
}

// contextUnits stamps unit once per target context: for each job in
// turn, chooseTargetContexts picks cfg.ContextsPerJob targets with the
// rng of cfg.Seed, which then draws each target's unit seed.
func contextUnits(ds *dataset.Dataset, cfg Config, unit Unit) (Plan, error) {
	if cfg.ContextsPerJob <= 0 || cfg.MaxSplits <= 0 {
		return nil, fmt.Errorf("experiments: ContextsPerJob and MaxSplits must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var plan Plan
	for _, job := range jobsOf(ds, cfg) {
		targets, err := chooseTargetContexts(ds, job, cfg.ContextsPerJob, rng)
		if err != nil {
			return nil, err
		}
		for _, t := range targets {
			unit.Job, unit.Target, unit.Seed = job, t, rng.Int63()
			plan = append(plan, unit)
		}
	}
	return plan, nil
}

func jobsOf(ds *dataset.Dataset, cfg Config) []string {
	if len(cfg.Jobs) > 0 {
		return cfg.Jobs
	}
	return ds.Jobs()
}

// chooseTargetContexts picks n random contexts of a job ensuring every
// node type appearing in the dataset is present at least once among the
// chosen contexts (paper §IV-C1).
func chooseTargetContexts(ds *dataset.Dataset, job string, n int, rng *rand.Rand) ([]*dataset.Context, error) {
	all := ds.Contexts(job)
	if len(all) == 0 {
		return nil, fmt.Errorf("experiments: job %q has no contexts", job)
	}
	if n >= len(all) {
		return all, nil
	}
	// Group contexts by node type and pick one of each first.
	byNode := map[string][]*dataset.Context{}
	var nodeOrder []string
	for _, c := range all {
		if len(byNode[c.NodeType]) == 0 {
			nodeOrder = append(nodeOrder, c.NodeType)
		}
		byNode[c.NodeType] = append(byNode[c.NodeType], c)
	}
	chosen := map[string]bool{}
	for _, nt := range nodeOrder {
		if len(chosen) == n {
			break
		}
		cs := byNode[nt]
		chosen[cs[rng.Intn(len(cs))].ID] = true
	}
	// Fill the remainder randomly.
	for _, i := range rng.Perm(len(all)) {
		if len(chosen) >= n {
			break
		}
		chosen[all[i].ID] = true
	}
	out := slices.DeleteFunc(slices.Clone(all), func(c *dataset.Context) bool { return !chosen[c.ID] }) // deterministic order
	return out, nil
}
