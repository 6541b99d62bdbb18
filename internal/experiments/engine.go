package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// BuildFunc pre-trains a base model from cfg, whose Seed the engine
// sets, on the base's corpus.
type BuildFunc func(cfg core.Config, corpus []core.Sample) (*core.Model, error)

// pretrain is the BuildFunc of a Base that names none.
func pretrain(cfg core.Config, corpus []core.Sample) (*core.Model, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	_, err = m.Pretrain(corpus)
	return m, err
}

// A Corpus selects the executions a base pre-trains on, relative to a
// unit's target context.
type Corpus int

const (
	// OtherContexts is the job's executions in every other context of
	// the dataset Run is given (dataset.FilterExcludeContext).
	OtherContexts Corpus = iota
	// DissimilarContexts keeps the other contexts that differ from the
	// target in every property (dataset.FilterDissimilar), the paper's
	// "filtered" pre-training.
	DissimilarContexts
	// SourceJob is the job's executions in Unit.Source, the traces of
	// another environment.
	SourceJob
)

// A Base is a pre-trained model that a unit's runners fine-tune.
type Base struct {
	Name   string
	Corpus Corpus
	// Build pre-trains the model; nil means core.New and Pretrain.
	Build BuildFunc
}

// A Runner is one method of a unit: a baseline (MethodNNLS, MethodBell),
// a clone of the base named Base fine-tuned under Strategy, or, when
// Base is empty, a fresh Bellamy model trained on the split alone.
type Runner struct {
	Method   Method
	Base     string
	Strategy core.Strategy
}

// A Unit is one target context of an experiment and all that runs on it.
type Unit struct {
	Job    string
	Target *dataset.Context
	// Source is the dataset a SourceJob corpus reads.
	Source *dataset.Dataset
	Seed   int64
	// Model is the Bellamy configuration of the unit's bases and fresh
	// models; its epoch counts are the training budget.
	Model   core.Config
	Bases   []Base
	Runners []Runner
	// PointCounts are the training sizes k to split for (0: zero-shot),
	// MaxSplits the most splits drawn for each.
	PointCounts []int
	MaxSplits   int
	// DeadlineFactors, when set, make every row also score the
	// allocation decision of its fitted predictor at each factor.
	DeadlineFactors []float64
}

// A Plan is the list of units an experiment runs.
type Plan []Unit

// Run executes the plan's units on ds, the dataset their targets belong
// to, at most workers at a time (0 = GOMAXPROCS), and returns their rows
// in plan order.
//
// A unit first draws its seeds and splits (see the package comment).
// Then the runners on no base run, each on every split, in plan order.
// Then each base in turn is pre-trained and its runners run, before the
// next base is built. So a BuildFunc that sets process-wide state, a
// kernel family say, has it hold for every fine-tune of its base, as
// long as workers is 1.
func Run(ds *dataset.Dataset, plan Plan, workers int) (Table, error) {
	errs := make([]error, len(plan))
	rows := parallel.Map(len(plan), workers, func(i int) Table {
		var t Table
		t, errs[i] = runUnit(ds, &plan[i], i)
		return t
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return slices.Concat(rows...), nil
}

func runUnit(ds *dataset.Dataset, u *Unit, index int) (Table, error) {
	rng := rand.New(rand.NewSource(u.Seed))
	corpora := map[Corpus][]core.Sample{}
	seeds := map[Corpus]int64{}
	for _, b := range u.Bases {
		if _, ok := corpora[b.Corpus]; !ok {
			corpora[b.Corpus] = core.SamplesFromExecutions(u.executions(ds, b.Corpus))
			if len(corpora[b.Corpus]) > 0 {
				seeds[b.Corpus] = rng.Int63()
			}
		}
	}
	localCfg := u.Model
	if slices.ContainsFunc(u.Runners, func(r Runner) bool { return r.Base == "" && r.Method.IsBellamy() }) {
		localCfg.Seed = rng.Int63()
	}
	execs := ds.ForContext(u.Target.ID)
	splits := make([][]Split, len(u.PointCounts))
	for i, k := range u.PointCounts {
		splits[i], _ = GenerateSplits(execs, k, u.MaxSplits, rng) // an infeasible k has no splits
	}
	var scoreAllocations func(baselines.Predictor) []Allocation
	if len(u.DeadlineFactors) > 0 {
		scoreAllocations = allocationScorer(execs, u.DeadlineFactors)
	}

	var rows Table
	for _, b := range append([]Base{{}}, u.Bases...) { // {}: the runners on no base
		var base *core.Model
		if b.Name != "" {
			if len(corpora[b.Corpus]) == 0 {
				continue
			}
			cfg, build := u.Model, b.Build
			cfg.Seed = seeds[b.Corpus]
			if build == nil {
				build = pretrain
			}
			var err error
			if base, err = build(cfg, corpora[b.Corpus]); err != nil {
				return nil, fmt.Errorf("experiments: pre-training base %q for %s: %w", b.Name, u.Target.ID, err)
			}
		}
		for _, r := range u.Runners {
			if r.Base != b.Name {
				continue
			}
			for i, k := range u.PointCounts {
				if k == 0 && base == nil {
					continue // zero-shot needs a pre-trained model
				}
				for s, sp := range splits[i] {
					p, err := u.predictor(r, base, localCfg)
					if err != nil {
						continue
					}
					m, ok := runSplit(p, sp)
					if !ok {
						continue
					}
					m.Unit, m.Split, m.Job, m.Context, m.Method, m.NumPoints = index, s, u.Job, u.Target.ID, r.Method, k
					if scoreAllocations != nil {
						m.Allocations = scoreAllocations(p)
					}
					rows = append(rows, m)
				}
			}
		}
	}
	return rows, nil
}

func (u *Unit) executions(ds *dataset.Dataset, c Corpus) []dataset.Execution {
	switch c {
	case OtherContexts:
		return dataset.FilterExcludeContext(ds, u.Target)
	case DissimilarContexts:
		return dataset.FilterDissimilar(ds, u.Target)
	case SourceJob:
		return u.Source.ForJob(u.Job)
	}
	panic(fmt.Sprintf("experiments: unknown corpus %d", c))
}

// predictor returns a fresh, unfitted predictor for r.
func (u *Unit) predictor(r Runner, base *core.Model, localCfg core.Config) (baselines.Predictor, error) {
	switch r.Method {
	case MethodNNLS:
		return baselines.NewErnest(), nil
	case MethodBell:
		return baselines.NewBell(), nil
	}
	var m *core.Model
	var err error
	if base != nil {
		m, err = base.Clone()
	} else {
		m, err = core.New(localCfg)
	}
	if err != nil {
		return nil, err
	}
	return core.NewContextPredictor(m, u.Target.EssentialProps(), u.Target.OptionalProps(), core.FinetuneOptions{Strategy: r.Strategy}), nil
}
