package dataset

import "testing"

// filterFixture builds a small dataset around one target context with
// contexts that differ from it in controlled ways.
func filterFixture() (*Dataset, *Context) {
	target := &Context{
		ID: "t", Job: "sort", NodeType: "m4.xlarge",
		JobParams: "--p 1", DatasetSizeMB: 10000, DatasetChars: "uniform",
	}
	mk := func(id, job, node, params, chars string, sizeMB int) *Context {
		return &Context{
			ID: id, Job: job, NodeType: node,
			JobParams: params, DatasetSizeMB: sizeMB, DatasetChars: chars,
		}
	}
	contexts := []*Context{
		target,
		// Fully dissimilar: different node, chars, params, size +50%.
		mk("dissimilar", "sort", "r4.2xlarge", "--p 2", "skewed", 15000),
		// Same node type as the target: excluded by FilterDissimilar.
		mk("same-node", "sort", "m4.xlarge", "--p 2", "skewed", 15000),
		// Same dataset characteristics: excluded.
		mk("same-chars", "sort", "r4.2xlarge", "--p 2", "uniform", 15000),
		// Same job parameters: excluded.
		mk("same-params", "sort", "r4.2xlarge", "--p 1", "skewed", 15000),
		// Size within 20%: excluded.
		mk("close-size", "sort", "r4.2xlarge", "--p 2", "skewed", 11000),
		// Different job entirely: excluded by every same-job filter.
		mk("other-job", "grep", "r4.2xlarge", "--p 2", "skewed", 15000),
	}
	ds := &Dataset{}
	for _, c := range contexts {
		ds.Executions = append(ds.Executions, Execution{Context: c, ScaleOut: 2, RuntimeSec: 100})
		ds.Executions = append(ds.Executions, Execution{Context: c, ScaleOut: 4, RuntimeSec: 60})
	}
	return ds, target
}

func contextIDs(execs []Execution) map[string]int {
	out := map[string]int{}
	for _, e := range execs {
		out[e.Context.ID]++
	}
	return out
}

func TestFilterExcludeContextFixture(t *testing.T) {
	ds, target := filterFixture()
	got := contextIDs(FilterExcludeContext(ds, target))
	if _, ok := got["t"]; ok {
		t.Fatal("FilterExcludeContext kept the target context")
	}
	if _, ok := got["other-job"]; ok {
		t.Fatal("FilterExcludeContext kept a different job")
	}
	if len(got) != 5 {
		t.Fatalf("FilterExcludeContext kept %d contexts, want 5", len(got))
	}
	// Per-context execution counts survive filtering.
	if got["dissimilar"] != 2 {
		t.Fatalf("dissimilar context kept %d executions, want 2", got["dissimilar"])
	}
}

func TestFilterDissimilarExclusionReasons(t *testing.T) {
	ds, target := filterFixture()
	got := contextIDs(FilterDissimilar(ds, target))
	if len(got) != 1 || got["dissimilar"] != 2 {
		t.Fatalf("FilterDissimilar kept %v, want only the fully dissimilar context", got)
	}
}

func TestFilterDissimilarSizeBoundary(t *testing.T) {
	ds, target := filterFixture()
	// Exactly 20% larger: sizeDiffers uses >=, so it qualifies.
	boundary := &Context{
		ID: "boundary", Job: "sort", NodeType: "r4.2xlarge",
		JobParams: "--p 2", DatasetSizeMB: 12000, DatasetChars: "skewed",
	}
	ds.Executions = append(ds.Executions, Execution{Context: boundary, ScaleOut: 2, RuntimeSec: 90})
	got := contextIDs(FilterDissimilar(ds, target))
	if _, ok := got["boundary"]; !ok {
		t.Fatal("context exactly 20% larger was excluded; the threshold is inclusive")
	}
}

func TestSizeDiffers(t *testing.T) {
	cases := []struct {
		a, b int
		want bool
	}{
		{12000, 10000, true},  // exactly +20%
		{8000, 10000, true},   // exactly -20%
		{11999, 10000, false}, // just inside
		{0, 0, false},         // zero baseline, zero value
		{1, 0, true},          // zero baseline, any value differs
	}
	for _, c := range cases {
		if got := sizeDiffers(c.a, c.b, 0.20); got != c.want {
			t.Errorf("sizeDiffers(%d, %d, 0.20) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
