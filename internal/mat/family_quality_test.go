package mat_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/mat"
)

// TestFamiliesTrainIndistinguishableModels: the two kernel families
// train different bits (their GEMMs sum in different orders and asm's
// activations are 4-lane kernels within 2 ulp of the scalar ones), so
// what they must agree on is the model's quality. On the simulator,
// each of twelve target contexts of sort pre-trains and fine-tunes at
// k = 3 with the asm family, then with the plain family, from one model
// seed, and the paired differences of mre_interp and mre_extrap may show
// neither a mean shift beyond three standard errors nor every context
// moving the same way.
func TestFamiliesTrainIndistinguishableModels(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-trains and fine-tunes 24 models; skipped in -short")
	}
	if !mat.HasAsm {
		t.Skip("only the plain family runs on this build or CPU")
	}
	ds := dataset.GenerateC3O(dataset.SimConfig{Seed: 7, Repeats: 2})
	model := core.DefaultConfig()
	model.PretrainEpochs = 40
	model.FinetuneEpochs = 120
	model.FinetunePatience = 40
	cfg := experiments.Config{
		Seed:           1,
		Jobs:           []string{"sort"},
		ContextsPerJob: 12,
		PointCounts:    []int{3},
		MaxSplits:      3,
		Model:          model,
	}
	family := func(asm bool) experiments.BuildFunc {
		return func(c core.Config, corpus []core.Sample) (*core.Model, error) {
			mat.SetFamily(t, asm)
			m, err := core.New(c)
			if err != nil {
				return nil, err
			}
			_, err = m.Pretrain(corpus)
			return m, err
		}
	}
	plan, err := experiments.PairedPlan(ds, cfg, family(true), family(false))
	if err != nil {
		t.Fatal(err)
	}
	// One worker: each arm's BuildFunc sets the family its fine-tunes
	// then run under.
	tab, err := experiments.Run(ds, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	interp := experiments.Paired(tab, experiments.ArmA, experiments.ArmB, experiments.InterpMRE)
	extrap := experiments.Paired(tab, experiments.ArmA, experiments.ArmB, experiments.ExtrapMRE)
	t.Logf("plain − asm, mre_interp: %v", interp)
	t.Logf("plain − asm, mre_extrap: %v", extrap)
	if interp.N != cfg.ContextsPerJob || extrap.N != cfg.ContextsPerJob {
		t.Fatalf("paired %d and %d of %d target contexts", interp.N, extrap.N, cfg.ContextsPerJob)
	}
	if interp.Differs() || extrap.Differs() {
		t.Fatalf("the families train distinguishable models: mre_interp %v; mre_extrap %v", interp, extrap)
	}
}
