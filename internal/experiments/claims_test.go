package experiments

import (
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
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
//
// The same test at k = 2 and 3 against NNLS is pinned as measured: the
// claim holds at k = 1 and not beyond, so a change that flips a verdict
// or moves a sign count shows here.
func TestClaimReuseExtrapolatesFromOneSample(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-trains and fine-tunes models; skipped in -short")
	}
	c3o := dataset.GenerateC3O(dataset.SimConfig{Seed: 1})
	cfg := Config{Seed: 1, ContextsPerJob: 3, MaxSplits: 3, PointCounts: []int{1, 2, 3}, Model: goldenModel()}
	plan, err := CrossContextPlan(c3o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Run(c3o, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	atK := func(k int) Table {
		return slices.DeleteFunc(slices.Clone(tab), func(m Measurement) bool { return m.NumPoints != k })
	}
	held := func(s PairedStat) bool { return s.N >= 10 && s.Lower >= (4*s.N+4)/5 } // ⌈0.8·N⌉
	for _, rival := range []Method{MethodNNLS, MethodBell, MethodBellamyLocal} {
		s := Paired(atK(1), rival, MethodBellamyFull, ExtrapMRE)
		t.Logf("bellamy-full − %s, mre_extrap at k = 1: %v", rival, s)
		if !held(s) {
			t.Errorf("bellamy-full extrapolates better than %s in %d of %d cells at k = 1, want >= %d of >= 10",
				rival, s.Lower, s.N, (4*s.N+4)/5)
		}
	}
	// Sign counts per kernel family: at k = 2 and 3 some cells of this
	// plan are near ties, which the asm and plain families break
	// differently. (The goldens' smaller plan prints the same tables in
	// both families; golden_test.go.)
	family := mat.KernelFamily()
	for _, want := range []struct {
		k                int
		held             bool
		n                int
		lower, higher    int // asm family
		plainLo, plainHi int
	}{
		{k: 1, held: true, n: 15, lower: 15, higher: 0, plainLo: 15, plainHi: 0},
		{k: 2, held: false, n: 15, lower: 9, higher: 6, plainLo: 10, plainHi: 5},
		{k: 3, held: false, n: 15, lower: 7, higher: 8, plainLo: 6, plainHi: 9},
	} {
		if family == "plain" {
			want.lower, want.higher = want.plainLo, want.plainHi
		}
		s := Paired(atK(want.k), MethodNNLS, MethodBellamyFull, ExtrapMRE)
		t.Logf("bellamy-full − nnls, mre_extrap at k = %d: %v (held: %v)", want.k, s, held(s))
		if held(s) != want.held || s.Lower != want.lower || s.Higher != want.higher || s.N != want.n {
			t.Errorf("k = %d (%s kernels): held %v, lower in %d and higher in %d of %d; pinned: held %v, %d and %d of %d",
				want.k, family, held(s), s.Lower, s.Higher, s.N, want.held, want.lower, want.higher, want.n)
		}
	}
}
