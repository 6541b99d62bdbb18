package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestPairedStatDiffers pins the verdict rule of Paired: a shift beyond
// three standard errors differs, as does a unanimous sign over eight or
// more units; noise around zero, identical methods and a single unit,
// which has no standard error, do not.
func TestPairedStatDiffers(t *testing.T) {
	// table holds one split per unit of methods a and b, with the given
	// interpolation errors.
	table := func(a, b []float64) Table {
		var tab Table
		for i := range a {
			tab = append(tab,
				Measurement{Unit: i, NumPoints: 3, Method: MethodNNLS, HasInterp: true, InterpRelErr: a[i]},
				Measurement{Unit: i, NumPoints: 3, Method: MethodBell, HasInterp: true, InterpRelErr: b[i]})
		}
		return tab
	}
	a := []float64{0.10, 0.20, 0.15, 0.30, 0.25, 0.12, 0.18, 0.22}
	for _, tc := range []struct {
		name    string
		a, b    []float64
		differs bool
	}{
		{"identical", a, []float64{0.10, 0.20, 0.15, 0.30, 0.25, 0.12, 0.18, 0.22}, false},
		{"noise", a, []float64{0.11, 0.19, 0.16, 0.29, 0.26, 0.11, 0.19, 0.21}, false},
		{"shift", a, []float64{0.15, 0.26, 0.19, 0.34, 0.31, 0.16, 0.23, 0.27}, true},
		{"unanimous", a, []float64{0.1001, 0.21, 0.1501, 0.50, 0.2501, 0.1201, 0.1801, 0.2201}, true},
		{"one unit", []float64{0.100}, []float64{0.1001}, false},
	} {
		s := Paired(table(tc.a, tc.b), MethodNNLS, MethodBell, InterpMRE)
		if s.N != len(tc.a) {
			t.Errorf("%s: %v: N = %d, want %d", tc.name, s, s.N, len(tc.a))
		}
		if s.Differs() != tc.differs {
			t.Errorf("%s: %v: Differs() = %v, want %v", tc.name, s, s.Differs(), tc.differs)
		}
	}
}

// TestRunPairedSameBuilderTies: one builder as both arms gives the same
// errors on every unit — the comparison shares targets, splits and seeds
// between the arms — so every unit is a tie.
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
	cfg := Config{Seed: 1, Jobs: []string{"sort"}, ContextsPerJob: 2, PointCounts: []int{3}, MaxSplits: 2, Model: model}
	plan, err := PairedPlan(ds, cfg, build, build)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Run(ds, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ unit, split int }
	arms := map[key][2]*Measurement{}
	for i := range tab {
		m := &tab[i]
		k := key{m.Unit, m.Split}
		v := arms[k]
		if m.Method == ArmA {
			v[0] = m
		} else {
			v[1] = m
		}
		arms[k] = v
	}
	if len(arms) == 0 {
		t.Fatal("no splits measured")
	}
	for k, v := range arms {
		if v[0] == nil || v[1] == nil {
			t.Fatalf("unit %d split %d: measured by one arm only", k.unit, k.split)
		}
		a, b := *v[0], *v[1]
		a.Method, b.Method, a.FitSeconds, b.FitSeconds = "", "", 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("unit %d split %d: arm A %+v, arm B %+v from the same builder", k.unit, k.split, a, b)
		}
		if a.InterpRelErr <= 0 && a.ExtraRelErr <= 0 {
			t.Fatalf("unit %d split %d: no errors measured: %+v", k.unit, k.split, a)
		}
	}
	if s := Paired(tab, ArmA, ArmB, InterpMRE); s.N != 2 || s.Lower+s.Higher != 0 || s.Differs() {
		t.Fatalf("mre_interp of identical arms: %v", s)
	}
}
