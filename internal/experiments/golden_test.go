package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// The goldens run at one seed and a tiny budget: two jobs, two target
// contexts each, three splits of k = 1, 2, 3 (and the zero-shot k = 0
// where the experiment has it), and goldenModel's 30 pre-training and
// 60 fine-tuning epochs. At this budget the asm and plain kernel
// families print the same tables, so one golden serves both.
func goldenModel() core.Config {
	m := core.DefaultConfig()
	m.PretrainEpochs = 30
	m.FinetuneEpochs = 60
	m.FinetunePatience = 20
	return m
}

// TestGoldenTables is the reference vector of the evaluation: a fixed
// seed and budget in, the printed tables of the cross-context,
// cross-environment and allocation experiments out, compared with the
// files under testdata/ (rewritten by -update). The fit-time table is
// left out because it prints wall time. A change that moves trained
// bits shows up here as a diff of the tables it moves.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-trains and fine-tunes models; skipped in -short")
	}
	c3o := dataset.GenerateC3O(dataset.SimConfig{Seed: 1})
	bell := dataset.GenerateBell(dataset.SimConfig{Seed: 2})
	cfg := Config{Seed: 1, ContextsPerJob: 2, MaxSplits: 3, PointCounts: []int{1, 2, 3}, Model: goldenModel()}
	run := func(t *testing.T, ds *dataset.Dataset, plan Plan, err error) Table {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		tab, err := Run(ds, plan, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	t.Run("crosscontext", func(t *testing.T) {
		cfg := cfg
		cfg.Jobs = []string{"grep", "sort"}
		plan, err := CrossContextPlan(c3o, cfg)
		tab := run(t, c3o, plan, err)
		checkGolden(t, "crosscontext", FormatMRETable(tab, false)+FormatMRETable(tab, true)+
			FormatMAETable(tab, "Cross-context (Fig. 6)")+FormatEpochECDF(tab))
	})
	t.Run("crossenv", func(t *testing.T) {
		cfg := cfg
		cfg.Jobs = []string{"grep"}
		plan, err := CrossEnvPlan(c3o, bell, cfg)
		tab := run(t, bell, plan, err)
		checkGolden(t, "crossenv", FormatMAETable(tab, "Cross-environment (Fig. 8)"))
	})
	t.Run("allocation", func(t *testing.T) {
		cfg := cfg
		cfg.Jobs = []string{"sort"}
		cfg.DeadlineFactors = []float64{1.2, 1.5, 2.0}
		plan, err := AllocationPlan(c3o, cfg)
		tab := run(t, c3o, plan, err)
		checkGolden(t, "allocation", FormatAllocationTable(tab))
	})
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden (rerun with -update if the change is meant):\n--- got\n%s--- want\n%s", path, got, want)
	}
}
