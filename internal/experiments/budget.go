package experiments

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// A Budget is how much training a run buys. BudgetCI, the default, is
// sized for CI and a laptop; BudgetPaper is Table I's model budget with
// §IV-C's split counts.
type Budget string

const (
	BudgetCI    Budget = "ci"
	BudgetPaper Budget = "paper"
)

// ParseBudget returns the budget named s.
func ParseBudget(s string) (Budget, error) {
	if b := Budget(s); b == BudgetCI || b == BudgetPaper {
		return b, nil
	}
	return "", fmt.Errorf("unknown budget %q (want %s or %s)", s, BudgetCI, BudgetPaper)
}

// Model returns the Bellamy configuration bellamy train pre-trains at b:
// Table I's (core.DefaultConfig), except that ci pre-trains for 250
// epochs.
func (b Budget) Model() core.Config {
	cfg := core.DefaultConfig()
	if b == BudgetCI {
		cfg.PretrainEpochs = 250
	}
	return cfg
}

// Search reports whether bellamy train runs Table I's hyperparameter
// search (hyperopt.DefaultOptions) before it pre-trains at b. The
// experiments train with fixed hyperparameters at both budgets.
func (b Budget) Search() bool { return b == BudgetPaper }

// A Kind is one experiment as bellamy experiment runs it.
type Kind struct {
	// shape is the configuration at ci, Model aside; paperSplits is
	// MaxSplits at paper, §IV-C's (0: ci's).
	shape       Config
	paperSplits int
	// Intro introduces a run, formatted with the C3O and Bell execution
	// counts; an explicit argument index leaves the other unused.
	Intro string
	// Plan plans the experiment on the simulated C3O and Bell traces.
	// The plan runs on Bell if OnBell, and on C3O otherwise.
	Plan   func(c3o, bell *dataset.Dataset, cfg Config) (Plan, error)
	OnBell bool
	// Tables formats the tables a run prints.
	Tables func(Table) []string
}

// Config returns the experiment's configuration at b. Its model is
// b.Model(), except that ci fine-tunes for at most 400 epochs at
// patience 150; Seed and Jobs are left to the caller.
func (k Kind) Config(b Budget) Config {
	cfg := k.shape
	cfg.Model = b.Model()
	switch b {
	case BudgetCI:
		cfg.Model.FinetuneEpochs, cfg.Model.FinetunePatience = 400, 150
	case BudgetPaper:
		cfg.MaxSplits = cmp.Or(k.paperSplits, cfg.MaxSplits)
	}
	return cfg
}

// Kinds are the experiments by their bellamy experiment -kind names.
var Kinds = map[string]Kind{
	"crosscontext": {
		shape: Config{ContextsPerJob: 7, MaxSplits: 30, PointCounts: []int{1, 2, 3, 4, 5, 6}}, paperSplits: 200,
		Intro: "cross-context experiment on %[1]d executions...",
		Plan: func(c3o, _ *dataset.Dataset, cfg Config) (Plan, error) {
			return CrossContextPlan(c3o, cfg)
		},
		Tables: func(tab Table) []string {
			return []string{FormatMRETable(tab, false), FormatMRETable(tab, true),
				FormatMAETable(tab, "Cross-context (Fig. 6)"), FormatEpochECDF(tab), FormatFitTimes(tab)}
		},
	},
	// One context per job: the Bell traces have one.
	"crossenv": {
		shape: Config{MaxSplits: 40, PointCounts: []int{1, 2, 3, 4, 5, 6}}, paperSplits: 500,
		Intro:  "cross-environment experiment: %d C3O / %d Bell executions...",
		Plan:   CrossEnvPlan,
		OnBell: true,
		Tables: func(tab Table) []string {
			return []string{FormatMAETable(tab, "Cross-environment (Fig. 8)"), FormatFitTimes(tab)}
		},
	},
	// The paper has no allocation experiment, so at paper it runs
	// Table I's model on ci's contexts and splits.
	"allocation": {
		shape: Config{ContextsPerJob: 3, MaxSplits: 10, PointCounts: []int{1, 2, 3}, DeadlineFactors: []float64{1.2, 1.5, 2.0}},
		Intro: "allocation-quality experiment on %[1]d executions...",
		Plan: func(c3o, _ *dataset.Dataset, cfg Config) (Plan, error) {
			return AllocationPlan(c3o, cfg)
		},
		Tables: func(tab Table) []string { return []string{FormatAllocationTable(tab)} },
	},
}
