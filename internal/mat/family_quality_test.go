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
// each of twelve seeds pre-trains and fine-tunes at k = 3 with the asm
// family, then with the plain family, and the paired differences of
// mre_interp and mre_extrap may show neither a mean shift beyond three
// standard errors nor every seed moving the same way.
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
	cfg := experiments.PairedConfig{
		Job:       "sort",
		Seeds:     []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		Points:    3,
		MaxSplits: 3,
		Model:     model,
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
	res, err := experiments.RunPaired(ds, cfg, family(true), family(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain − asm, mre_interp: %v", res.Interp)
	t.Logf("plain − asm, mre_extrap: %v", res.Extrap)
	if res.Interp.Differs() || res.Extrap.Differs() {
		t.Fatalf("the families train distinguishable models: mre_interp %v; mre_extrap %v", res.Interp, res.Extrap)
	}
}
