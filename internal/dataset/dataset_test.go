package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateC3OShape(t *testing.T) {
	ds := GenerateC3O(SimConfig{Seed: 1})
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// 155 contexts x 6 scale-outs x 5 repeats = 4650 rows;
	// 930 unique (context, scale-out) experiments as in the paper.
	if got := ds.Len(); got != 4650 {
		t.Fatalf("C3O rows = %d, want 4650", got)
	}
	wantContexts := map[string]int{"sort": 21, "grep": 27, "sgd": 30, "kmeans": 30, "pagerank": 47}
	for job, want := range wantContexts {
		if got := len(ds.Contexts(job)); got != want {
			t.Errorf("%s contexts = %d, want %d", job, got, want)
		}
	}
	unique := map[[2]string]bool{}
	for _, e := range ds.Executions {
		unique[[2]string{e.Context.ID, string(rune(e.ScaleOut))}] = true
	}
	if got := len(unique); got != 930 {
		t.Errorf("unique experiments = %d, want 930", got)
	}
}

func TestGenerateC3OScaleOuts(t *testing.T) {
	ds := GenerateC3O(SimConfig{Seed: 1})
	for _, job := range C3OJobs {
		xs := ScaleOuts(ds.ForJob(job))
		want := []int{2, 4, 6, 8, 10, 12}
		if len(xs) != len(want) {
			t.Fatalf("%s scale-outs = %v, want %v", job, xs, want)
		}
		for i := range want {
			if xs[i] != want[i] {
				t.Fatalf("%s scale-outs = %v, want %v", job, xs, want)
			}
		}
	}
}

func TestGenerateBellShape(t *testing.T) {
	ds := GenerateBell(SimConfig{Seed: 1})
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 jobs x 1 context x 15 scale-outs x 7 repeats = 315 rows.
	if got := ds.Len(); got != 315 {
		t.Fatalf("Bell rows = %d, want 315", got)
	}
	for _, job := range BellJobs {
		ctxs := ds.Contexts(job)
		if len(ctxs) != 1 {
			t.Fatalf("%s contexts = %d, want 1", job, len(ctxs))
		}
		xs := ScaleOuts(ds.ForJob(job))
		if len(xs) != 15 || xs[0] != 4 || xs[14] != 60 {
			t.Fatalf("%s scale-outs = %v", job, xs)
		}
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	a := GenerateC3O(SimConfig{Seed: 42})
	b := GenerateC3O(SimConfig{Seed: 42})
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Executions {
		if a.Executions[i].RuntimeSec != b.Executions[i].RuntimeSec {
			t.Fatalf("row %d differs: %v vs %v", i,
				a.Executions[i].RuntimeSec, b.Executions[i].RuntimeSec)
		}
	}
}

func TestSimulatorSeedsDiffer(t *testing.T) {
	a := GenerateC3O(SimConfig{Seed: 1})
	b := GenerateC3O(SimConfig{Seed: 2})
	same := true
	for i := range a.Executions {
		if a.Executions[i].RuntimeSec != b.Executions[i].RuntimeSec {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRepeatsShareGroundTruth(t *testing.T) {
	// Repeated runs of the same (context, scale-out) differ only by
	// small multiplicative noise.
	ds := GenerateC3O(SimConfig{Seed: 3})
	ctx := ds.Contexts("sort")[0]
	byScale := GroupByScaleOut(ds.ForContext(ctx.ID))
	for x, execs := range byScale {
		if len(execs) != 5 {
			t.Fatalf("scale-out %d repeats = %d, want 5", x, len(execs))
		}
		mean := 0.0
		for _, e := range execs {
			mean += e.RuntimeSec
		}
		mean /= float64(len(execs))
		for _, e := range execs {
			if math.Abs(e.RuntimeSec-mean)/mean > 0.5 {
				t.Fatalf("noise too large at scale-out %d: %v vs mean %v", x, e.RuntimeSec, mean)
			}
		}
	}
}

func TestNonTrivialJobsHaveInteriorMinimum(t *testing.T) {
	// SGD and K-Means should not be monotone decreasing over 2..12 in at
	// least some contexts — the defining feature of non-trivial
	// scale-out behaviour in the paper.
	ds := GenerateC3O(SimConfig{Seed: 4, NoiseSigma: 0.001})
	for _, job := range []string{"sgd", "kmeans"} {
		found := false
		for _, ctx := range ds.Contexts(job) {
			means := MeanRuntimeByScaleOut(ds.ForContext(ctx.ID))
			xs := ScaleOuts(ds.ForContext(ctx.ID))
			argmin := xs[0]
			best := math.Inf(1)
			for _, x := range xs {
				if means[x] < best {
					best = means[x]
					argmin = x
				}
			}
			if argmin > xs[0] && argmin < xs[len(xs)-1] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s has no context with interior runtime minimum", job)
		}
	}
}

func TestTrivialJobsMostlyMonotone(t *testing.T) {
	// Grep should be monotone decreasing in nearly all contexts.
	ds := GenerateC3O(SimConfig{Seed: 5, NoiseSigma: 0.001})
	mono := 0
	ctxs := ds.Contexts("grep")
	for _, ctx := range ctxs {
		means := MeanRuntimeByScaleOut(ds.ForContext(ctx.ID))
		xs := ScaleOuts(ds.ForContext(ctx.ID))
		ok := true
		for i := 1; i < len(xs); i++ {
			if means[xs[i]] > means[xs[i-1]]*1.02 {
				ok = false
				break
			}
		}
		if ok {
			mono++
		}
	}
	if mono < len(ctxs)*3/4 {
		t.Errorf("grep monotone contexts = %d of %d, want >= 3/4", mono, len(ctxs))
	}
}

func TestEssentialAndOptionalProps(t *testing.T) {
	ds := GenerateC3O(SimConfig{Seed: 1})
	ctx := ds.Contexts("sgd")[0]
	ess := ctx.EssentialProps()
	if len(ess) != 4 {
		t.Fatalf("essential props = %d, want 4", len(ess))
	}
	names := []string{"dataset_size_mb", "dataset_characteristics", "job_parameters", "node_type"}
	for i, n := range names {
		if ess[i].Name != n {
			t.Fatalf("essential[%d] = %s, want %s", i, ess[i].Name, n)
		}
		if ess[i].Optional {
			t.Fatalf("essential[%d] marked optional", i)
		}
	}
	opt := ctx.OptionalProps()
	if len(opt) != 3 {
		t.Fatalf("optional props = %d, want 3", len(opt))
	}
	for i, p := range opt {
		if !p.Optional {
			t.Fatalf("optional[%d] not marked optional", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := GenerateBell(SimConfig{Seed: 9})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Fatalf("round trip rows = %d, want %d", got.Len(), ds.Len())
	}
	for i := range ds.Executions {
		a, b := ds.Executions[i], got.Executions[i]
		if a.ScaleOut != b.ScaleOut || a.RuntimeSec != b.RuntimeSec {
			t.Fatalf("row %d differs", i)
		}
		if a.Context.ID != b.Context.ID || a.Context.NodeType != b.Context.NodeType {
			t.Fatalf("row %d context differs", i)
		}
	}
	// Contexts with the same ID must be shared after parsing.
	if got.Executions[0].Context != got.Executions[1].Context {
		t.Fatal("parsed contexts not shared")
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Fatal("expected error for bad header")
	}
}

func TestReadCSVRejectsMalformedRow(t *testing.T) {
	good := strings.Join(csvHeader, ",") + "\n"
	bad := good + "c3o,grep,ctx,node,params,notanumber,uniform,1024,4,2,100\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("expected error for malformed dataset_size_mb")
	}
	// A quoted value spanning two lines moves the bad row to line 4.
	multi := good + "c3o,grep,a,n,\"--p\nq\",1,u,1,1,2,3\nc3o,grep,b,n,p,x,u,1,1,2,3\n"
	if _, err := ReadCSV(strings.NewReader(multi)); err == nil || !strings.Contains(err.Error(), "line 4 ") {
		t.Fatalf("err = %v, want the bad row's line 4", err)
	}
	for _, rt := range []string{"-5", "0", "NaN", "+Inf", "-Inf"} {
		bad2 := good + "c3o,grep,ctx,node,params,1000,uniform,1024,4,2," + rt + "\n"
		if _, err := ReadCSV(strings.NewReader(bad2)); err == nil {
			t.Fatalf("expected validation error for runtime %s", rt)
		}
	}
}

// Rows of one context_id that disagree on a property are refused with
// the line of the first disagreeing row; merging them would train that
// row's executions under the first row's properties.
func TestReadCSVRejectsConflictingContext(t *testing.T) {
	first := "c3o,grep,ctx,m4.xlarge,--pattern a,1000,uniform,1024,4,2,100\n"
	for col, alt := range []string{"bell", "sort", "", "r4.xlarge", "--pattern b", "2000", "zipf", "2048", "8"} {
		if col == 2 {
			continue // context_id itself: a different id is a different context
		}
		fields := strings.Split(strings.TrimSuffix(first, "\n"), ",")
		fields[col] = alt
		in := strings.Join(csvHeader, ",") + "\n" + first + first + strings.Join(fields, ",") + "\n"
		_, err := ReadCSV(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 4") {
			t.Fatalf("column %s changed to %q: err = %v, want a line 4 error", csvHeader[col], alt, err)
		}
	}
}

func TestFilterExcludeContext(t *testing.T) {
	ds := GenerateC3O(SimConfig{Seed: 1})
	target := ds.Contexts("grep")[0]
	execs := FilterExcludeContext(ds, target)
	for _, e := range execs {
		if e.Context.ID == target.ID {
			t.Fatal("target context not excluded")
		}
	}
	if len(execs) != 26*6*5 {
		t.Fatalf("executions = %d, want %d", len(execs), 26*6*5)
	}
}

func TestFilterDissimilar(t *testing.T) {
	ds := GenerateC3O(SimConfig{Seed: 1})
	target := ds.Contexts("pagerank")[0]
	execs := FilterDissimilar(ds, target)
	if len(execs) == 0 {
		t.Fatal("dissimilar filter returned nothing; simulator contexts too uniform")
	}
	for _, e := range execs {
		c := e.Context
		if c.NodeType == target.NodeType {
			t.Fatal("node type matches target")
		}
		if c.DatasetChars == target.DatasetChars {
			t.Fatal("dataset characteristics match target")
		}
		if c.JobParams == target.JobParams {
			t.Fatal("job params match target")
		}
		if !sizeDiffers(c.DatasetSizeMB, target.DatasetSizeMB, 0.20) {
			t.Fatal("dataset size within 20% of target")
		}
	}
}

func TestNormalizedCurvesInUnitRange(t *testing.T) {
	ds := GenerateC3O(SimConfig{Seed: 1})
	for _, job := range C3OJobs {
		for _, c := range NormalizedCurves(ds, job) {
			for i, v := range c.Normalized {
				if v < 0 || v > 1+1e-12 {
					t.Fatalf("%s %s: normalized[%d] = %v out of [0,1]", job, c.ContextID, i, v)
				}
			}
		}
	}
}

func TestRuntimeVariance(t *testing.T) {
	ds := GenerateC3O(SimConfig{Seed: 1})
	v := RuntimeVariance(ds, "sgd")
	if len(v.ScaleOuts) != 6 {
		t.Fatalf("variance scale-outs = %v", v.ScaleOuts)
	}
	// Cross-context variance must be nonzero (Fig. 2's point).
	anyVar := false
	for _, s := range v.StdDev {
		if s > 0.001 {
			anyVar = true
		}
	}
	if !anyVar {
		t.Fatal("no cross-context variance in sgd")
	}
	for i := range v.Min {
		if v.Min[i] > v.Max[i] {
			t.Fatalf("min > max at %d", i)
		}
	}
}

func TestMeanRuntimeByScaleOut(t *testing.T) {
	ctx := &Context{ID: "x", Job: "grep"}
	execs := []Execution{
		{Context: ctx, ScaleOut: 2, RuntimeSec: 10},
		{Context: ctx, ScaleOut: 2, RuntimeSec: 14},
		{Context: ctx, ScaleOut: 4, RuntimeSec: 8},
	}
	m := MeanRuntimeByScaleOut(execs)
	if m[2] != 12 || m[4] != 8 {
		t.Fatalf("means = %v", m)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds := &Dataset{Executions: []Execution{{Context: nil, ScaleOut: 2, RuntimeSec: 1}}}
	if err := ds.Validate(); err == nil {
		t.Fatal("nil context not caught")
	}
	ctx := &Context{ID: "a"}
	ds = &Dataset{Executions: []Execution{{Context: ctx, ScaleOut: 0, RuntimeSec: 1}}}
	if err := ds.Validate(); err == nil {
		t.Fatal("zero scale-out not caught")
	}
	for _, rt := range []float64{-1, math.NaN(), math.Inf(1)} {
		ds = &Dataset{Executions: []Execution{{Context: ctx, ScaleOut: 2, RuntimeSec: rt}}}
		if err := ds.Validate(); err == nil {
			t.Fatalf("runtime %v not caught", rt)
		}
	}
}

// Property: ground-truth runtimes are positive and finite for any
// reasonable context.
func TestQuickGroundTruthPositive(t *testing.T) {
	f := func(seed int64) bool {
		ds := GenerateC3O(SimConfig{Seed: seed % 1000, Repeats: 1})
		for _, e := range ds.Executions {
			if e.RuntimeSec <= 0 || math.IsNaN(e.RuntimeSec) || math.IsInf(e.RuntimeSec, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestParseIterations(t *testing.T) {
	tests := []struct {
		in   string
		want int
	}{
		{"--iterations 100", 100},
		{"--k 8 --iterations 50", 50},
		{"--pattern error", 0},
		{"", 0},
	}
	for _, tc := range tests {
		if got := parseIterations(tc.in); got != tc.want {
			t.Errorf("parseIterations(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func BenchmarkGenerateC3O(b *testing.B) {
	for i := 0; i < b.N; i++ {
		GenerateC3O(SimConfig{Seed: int64(i)})
	}
}
