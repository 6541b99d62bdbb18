package experiments

import (
	"slices"
	"testing"

	"repro/internal/dataset"
)

// TestClaimReuseExtrapolatesFromOneSample pins the paper's first
// cross-context claim (§IV-C1, Fig. 5) on the simulator: given a single
// execution of a new context, Bellamy fine-tuned from the model
// pre-trained on the job's other contexts extrapolates to an unseen
// scale-out with a lower relative error than NNLS (Ernest), Bell, and a
// Bellamy model trained on that execution alone. The claim is a paired
// sign test over (unit, k = 1) cells — five jobs, three target contexts
// each — at the goldens' training budget: bellamy-full must be lower in
// at least ⌈0.8·N⌉ of N >= 10 cells against each rival.
func TestClaimReuseExtrapolatesFromOneSample(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-trains and fine-tunes models; skipped in -short")
	}
	c3o := dataset.GenerateC3O(dataset.SimConfig{Seed: 1})
	cfg := Config{Seed: 1, ContextsPerJob: 3, MaxSplits: 3, PointCounts: []int{1}, Model: goldenModel()}
	plan, err := CrossContextPlan(c3o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Run(c3o, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	oneSample := slices.DeleteFunc(tab, func(m Measurement) bool { return m.NumPoints != 1 })
	for _, rival := range []Method{MethodNNLS, MethodBell, MethodBellamyLocal} {
		s := Paired(oneSample, rival, MethodBellamyFull, ExtrapMRE)
		need := (4*s.N + 4) / 5 // ⌈0.8·N⌉
		t.Logf("bellamy-full − %s, mre_extrap at k = 1: %v", rival, s)
		if s.N < 10 || s.Lower < need {
			t.Errorf("bellamy-full extrapolates better than %s in %d of %d cells at k = 1, want >= %d of >= 10",
				rival, s.Lower, s.N, need)
		}
	}
}
