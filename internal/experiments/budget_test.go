package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hyperopt"
)

// TestBudgets pins both budgets of every experiment kind and of bellamy
// train: ci is the laptop-scale budget both verbs run by default, and
// paper is Table I's model (2500 pre-training epochs, at most
// 2500 fine-tuning epochs at patience 1000, target MAE 5 s, a 12-trial
// search before train) with §IV-C's 200 cross-context and 500
// cross-environment splits.
func TestBudgets(t *testing.T) {
	tableI := core.DefaultConfig()
	if tableI.PretrainEpochs != 2500 || tableI.FinetuneEpochs != 2500 || tableI.FinetunePatience != 1000 || tableI.FinetuneTargetMAE != 5 {
		t.Fatalf("core.DefaultConfig is not Table I's budget: %+v", tableI)
	}
	if n := hyperopt.DefaultOptions().Trials; n != 12 {
		t.Fatalf("hyperopt.DefaultOptions().Trials = %d, want Table I's 12", n)
	}

	ciTrain := tableI
	ciTrain.PretrainEpochs = 250
	for _, c := range []struct {
		budget Budget
		model  core.Config
		search bool
	}{{BudgetCI, ciTrain, false}, {BudgetPaper, tableI, true}} {
		if got := c.budget.Model(); got != c.model {
			t.Errorf("%s: train model %+v, want %+v", c.budget, got, c.model)
		}
		if got := c.budget.Search(); got != c.search {
			t.Errorf("%s: train searches %v, want %v", c.budget, got, c.search)
		}
	}

	ciModel := ciTrain
	ciModel.FinetuneEpochs, ciModel.FinetunePatience = 400, 150
	oneToSix := []int{1, 2, 3, 4, 5, 6}
	for _, c := range []struct {
		budget    Budget
		kind      string
		model     core.Config
		splits    int
		contexts  int
		points    []int
		deadlines []float64
	}{
		{BudgetCI, "crosscontext", ciModel, 30, 7, oneToSix, nil},
		{BudgetCI, "crossenv", ciModel, 40, 0, oneToSix, nil},
		{BudgetCI, "allocation", ciModel, 10, 3, []int{1, 2, 3}, []float64{1.2, 1.5, 2.0}},
		{BudgetPaper, "crosscontext", tableI, 200, 7, oneToSix, nil},
		{BudgetPaper, "crossenv", tableI, 500, 0, oneToSix, nil},
		{BudgetPaper, "allocation", tableI, 10, 3, []int{1, 2, 3}, []float64{1.2, 1.5, 2.0}},
	} {
		cfg := Kinds[c.kind].Config(c.budget)
		if cfg.Model != c.model || cfg.MaxSplits != c.splits || cfg.ContextsPerJob != c.contexts ||
			!slices.Equal(cfg.PointCounts, c.points) || !slices.Equal(cfg.DeadlineFactors, c.deadlines) ||
			cfg.Seed != 0 || cfg.Jobs != nil {
			t.Errorf("%s %s: %+v", c.budget, c.kind, cfg)
		}
	}

	if len(Kinds) != 3 {
		t.Errorf("%d experiment kinds, pinned 3", len(Kinds))
	}
	for _, s := range []string{"ci", "paper"} {
		if b, err := ParseBudget(s); err != nil || string(b) != s {
			t.Errorf("ParseBudget(%q) = %q, %v", s, b, err)
		}
	}
	if _, err := ParseBudget("Paper"); err == nil || !strings.Contains(err.Error(), "ci or paper") {
		t.Errorf("ParseBudget(\"Paper\") error %v, want one naming ci and paper", err)
	}
}
