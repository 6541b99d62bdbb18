package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// tinyAllocationConfig shrinks the experiment to a smoke-test budget:
// one job, one target context, a handful of splits, tiny model.
func tinyAllocationConfig() Config {
	cfg := Config{Seed: 1, Jobs: []string{"sort"}, ContextsPerJob: 1, MaxSplits: 2, PointCounts: []int{2}, DeadlineFactors: []float64{1.5}}
	m := core.DefaultConfig()
	m.PropertySize = 16
	m.EncodingDim = 3
	m.EncoderHidden = 6
	m.ScaleOutHidden = 8
	m.ScaleOutDim = 4
	m.PredictorHidden = 6
	m.PretrainEpochs = 3
	m.FinetuneEpochs = 10
	m.FinetunePatience = 5
	cfg.Model = m
	return cfg
}

func TestRunAllocationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pre-trains a model; skipped in -short")
	}
	ds := dataset.GenerateC3O(dataset.SimConfig{Seed: 7, Repeats: 2})
	plan, err := AllocationPlan(ds, tinyAllocationConfig())
	if err != nil {
		t.Fatalf("AllocationPlan: %v", err)
	}
	tab, err := Run(ds, plan, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	methods := map[Method]bool{}
	for _, m := range tab {
		if m.Job != "sort" {
			t.Fatalf("measurement for unexpected job %q", m.Job)
		}
		for _, a := range m.Allocations {
			methods[m.Method] = true
			if a.OracleFeasible && !a.Violated && a.Regret < 0 {
				t.Fatalf("negative regret %v: chosen config cheaper than the oracle", a.Regret)
			}
		}
	}
	if len(methods) == 0 {
		t.Fatal("experiment produced no allocations")
	}
	for _, want := range []Method{MethodNNLS, MethodBell, MethodBellamyFull} {
		if !methods[want] {
			t.Fatalf("method %s missing from allocations", want)
		}
	}
	table := FormatAllocationTable(tab)
	if !strings.Contains(table, "sort") || !strings.Contains(table, "nnls") {
		t.Fatalf("allocation table missing expected rows/columns:\n%s", table)
	}
}

func TestOracleChoice(t *testing.T) {
	candidates := []int{2, 4, 8}
	runtime := map[int]float64{2: 300, 4: 150, 8: 100}
	// Deadline 200: feasible at 4 (cost 4*150) and 8 (cost 8*100);
	// cheapest is 4.
	cost, ok := oracleChoice(candidates, runtime, 200)
	if !ok {
		t.Fatal("deadline 200 reported infeasible")
	}
	if want := 4.0 * 150 / 3600; cost != want {
		t.Fatalf("oracle cost = %v, want %v", cost, want)
	}
	if _, ok := oracleChoice(candidates, runtime, 50); ok {
		t.Fatal("deadline 50 reported feasible")
	}
}

func TestRunAllocationValidation(t *testing.T) {
	ds := dataset.GenerateC3O(dataset.SimConfig{Seed: 1, Repeats: 2})
	cfg := tinyAllocationConfig()
	cfg.PointCounts = []int{0}
	if _, err := AllocationPlan(ds, cfg); err == nil {
		t.Fatal("PointCounts {0} accepted")
	}
	cfg = tinyAllocationConfig()
	cfg.DeadlineFactors = nil
	if _, err := AllocationPlan(ds, cfg); err == nil {
		t.Fatal("empty DeadlineFactors accepted")
	}
}
