package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestPairedStatDiffers pins the verdict rule: a shift beyond three
// standard errors differs, as does a unanimous sign over eight or more
// seeds; noise around zero and identical arms do not.
func TestPairedStatDiffers(t *testing.T) {
	mre := func(vals ...float64) []SeedMRE {
		out := make([]SeedMRE, len(vals))
		for i, v := range vals {
			out[i] = SeedMRE{Interp: v}
		}
		return out
	}
	interp := func(s SeedMRE) float64 { return s.Interp }
	a := mre(0.10, 0.20, 0.15, 0.30, 0.25, 0.12, 0.18, 0.22)
	for _, tc := range []struct {
		name    string
		b       []SeedMRE
		differs bool
	}{
		{"identical", mre(0.10, 0.20, 0.15, 0.30, 0.25, 0.12, 0.18, 0.22), false},
		{"noise", mre(0.11, 0.19, 0.16, 0.29, 0.26, 0.11, 0.19, 0.21), false},
		{"shift", mre(0.15, 0.26, 0.19, 0.34, 0.31, 0.16, 0.23, 0.27), true},
		{"unanimous", mre(0.1001, 0.21, 0.1501, 0.50, 0.2501, 0.1201, 0.1801, 0.2201), true},
	} {
		s := pairedStat(a, tc.b, interp)
		if s.Differs() != tc.differs {
			t.Errorf("%s: %v: Differs() = %v, want %v", tc.name, s, s.Differs(), tc.differs)
		}
	}
}

// TestRunPairedSameBuilderTies: one builder as both arms gives the same
// errors on every seed — the comparison shares targets, splits and seeds
// between the arms — so every seed is a tie.
func TestRunPairedSameBuilderTies(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-trains models; skipped in -short")
	}
	ds := dataset.GenerateC3O(dataset.SimConfig{Seed: 7, Repeats: 2})
	model := tinyAllocationConfig().Model
	build := func(c core.Config, corpus []core.Sample) (*core.Model, error) {
		m, err := core.New(c)
		if err != nil {
			return nil, err
		}
		_, err = m.Pretrain(corpus)
		return m, err
	}
	res, err := RunPaired(ds, PairedConfig{Job: "sort", Seeds: []int64{1, 2}, Points: 3, MaxSplits: 2, Model: model}, build, build)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.A {
		if res.A[i] != res.B[i] {
			t.Fatalf("seed %d: arm A %+v, arm B %+v from the same builder", i, res.A[i], res.B[i])
		}
		if res.A[i].Interp <= 0 && res.A[i].Extrap <= 0 {
			t.Fatalf("seed %d: no errors measured: %+v", i, res.A[i])
		}
	}
	if s := res.Interp; s.N != 2 || s.Lower+s.Higher != 0 || s.Differs() {
		t.Fatalf("mre_interp of identical arms: %v", s)
	}
}
