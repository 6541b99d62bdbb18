package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json and the code that prints the result line must name
// the same workloads and metrics, or a driver reads keys that are not
// there.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, the code runs %v", names, workloadNames)
	}

	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	// The driver-facing list: names, units and bounds come from the one
	// table of end-to-end metrics, through the metrics each entry carries.
	type declared struct {
		Name, Unit string
		Bound      float64
	}
	var e2e, wantE2E []declared
	for _, m := range f.EndToEnd {
		e2e = append(e2e, declared{m.Name, m.Unit, m.Bound})
		if m.Better != "lower" || m.Bound <= 0 || m.Bound > 0.25 || !nameOK.MatchString(m.Name) || !unitOK.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %+v breaks the schema", m)
		}
	}
	for _, d := range contractE2E {
		wantE2E = append(wantE2E, declared{d.Name, d.Unit, d.bound()})
		for _, w := range workloadNames {
			name, ok := d.from[w]
			if def, isE2E := e2eBound(name); !ok || (isE2E && !reportedOn(def.On, w)) {
				t.Errorf("%s on %s carries %q, which that workload does not report", d.Name, w, name)
			}
		}
	}
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end_to_end %v, the code declares %v", e2e, wantE2E)
	}
	type nameUnit struct{ Name, Unit string }
	var layers, wantLayers []nameUnit
	seen := map[string]bool{}
	for _, m := range f.PerLayer {
		layers = append(layers, nameUnit{m.Name, m.Unit})
		if (m.Better != "lower" && m.Better != "higher") || !nameOK.MatchString(m.Name) || !unitOK.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer metric %+v breaks the schema", m)
		}
		seen[m.Name] = true
	}
	for _, d := range contractLayers {
		wantLayers = append(wantLayers, nameUnit{d.Name, d.Unit})
	}
	if !reflect.DeepEqual(layers, wantLayers) {
		t.Errorf("per_layer differs from the code:\n file %v\n code %v", layers, wantLayers)
	}
	if len(layers) > 128 || f.RunSeconds < 1 || f.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("%d layers, run_seconds %d, %d bytes: outside the schema's limits", len(layers), f.RunSeconds, len(raw))
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", f.Paths)
	}
}

func sampleResult() WorkloadResult {
	r := WorkloadResult{Name: wlServeCold, Correct: true, Attempted: 10}
	r.addE2EValue("setup_s", 1.5, 3)
	r.addE2EValue("batch_p50_ms", 4.25, 100)
	r.addE2EValue("server_rss_mb", 40, 1)
	r.addLayer("mat.sgemm_serve_us", "us", 50, 1000)
	return r
}

func TestContractLine(t *testing.T) {
	r := sampleResult()
	line, err := contractLine(&r, false)
	if err != nil {
		t.Fatal(err)
	}
	var got contractResult
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]contractValue{"setup_s": {1.5, "s"}, "rss_mb": {40, "MB"}}
	if !got.Correct || got.Attempted != 10 || !reflect.DeepEqual(got.Metrics, want) {
		t.Errorf("untraced line %s, want metrics %v", line, want)
	}

	line, err = contractLine(&r, true)
	if err != nil {
		t.Fatal(err)
	}
	got = contractResult{}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(contractLayers) || got.Metrics["mat.sgemm_serve_us"].Value != 50 ||
		got.Metrics["e2e.batch_p50_ms"].Value != 4.25 || got.Metrics["lifecycle.swaps"].Value != 0 {
		t.Errorf("traced line carries %d metrics: %s", len(got.Metrics), line)
	}

	// A run that could not read the server's memory is not a correct run.
	broken := WorkloadResult{Name: wlServeHot, Correct: true, Attempted: 1}
	broken.addE2EValue("setup_s", 1, 1)
	line, _ = contractLine(&broken, false)
	if !strings.Contains(line, `"correct":false`) {
		t.Errorf("a result without its peak memory passed as correct: %s", line)
	}
}

// A metric defined on a workload and absent from its result is named;
// one defined elsewhere is not, and neither is a driver diagnostic.
func TestMissingMetrics(t *testing.T) {
	r := sampleResult()
	want := []string{"allocate_p50_us", "error_rate"}
	if got := missingMetrics(&r, false); !reflect.DeepEqual(got, want) {
		t.Errorf("untraced: missing %v, want %v", got, want)
	}
	r.addE2EValue("allocate_p50_us", 300, 10)
	r.addE2EValue("error_rate", 0, 10)
	if got := missingMetrics(&r, false); got != nil {
		t.Errorf("a complete untraced result is missing %v", got)
	}
	got := missingMetrics(&r, true)
	for _, name := range []string{"shard.batch_fanouts", "serve.result_hit_ratio", "mat.dgemm_train_us"} {
		if !slices.Contains(got, name) {
			t.Errorf("traced: %s is not reported missing: %v", name, got)
		}
	}
	for _, name := range []string{"mat.sgemm_serve_us", "lifecycle.swaps", "e2e.batch_p50_ms", "e2e.mre_interp", "driver.batch_p99_ms"} {
		if slices.Contains(got, name) {
			t.Errorf("traced: %s is reported missing", name)
		}
	}
}

func TestMergeTraceValue(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--workload serve-hot --seed 3 --seconds 20 --trace 0", "--workload serve-hot --seed 3 --seconds 20 -trace=0"},
		{"--trace 1 --seed 3", "-trace=1 --seed 3"},
		{"-seed 1 -trace", "-seed 1 -trace"},
		{"-trace -seed 1", "-trace -seed 1"},
	} {
		if got := strings.Join(mergeTraceValue(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("mergeTraceValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	// run builds a one-workload report whose batch latency is scale times
	// the sample's and whose error rate is errRate.
	run := func(scale, errRate float64) *Report {
		r := sampleResult()
		r.Metrics[1].Value *= scale // batch_p50_ms
		r.addE2EValue("error_rate", errRate, 10)
		return &Report{Workloads: []WorkloadResult{r}}
	}
	bound := sampleResult().Metrics[1].Bound
	a := []*Report{run(1, 0)}
	var out bytes.Buffer

	if n := compareSets(&out, a, []*Report{run(1, 0)}); n != 0 {
		t.Errorf("identical reports: %d violations\n%s", n, out.String())
	}
	if n := compareSets(&out, a, []*Report{run(1+bound-0.01, 0)}); n != 0 {
		t.Errorf("a point inside the bound: %d violations", n)
	}
	if n := compareSets(&out, a, []*Report{run(0.5, 0)}); n != 0 {
		t.Errorf("twice as fast: %d violations", n)
	}

	out.Reset()
	if n := compareSets(&out, a, []*Report{run(1+bound+0.02, 0.001)}); n != 2 {
		t.Errorf("outside the bound and a new error: %d violations, want 2\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "WORSE") {
		t.Errorf("violations are not marked:\n%s", out.String())
	}

	// Sets compare by their medians: one bad run of three does not fail
	// the set, two do.
	slow := 1 + bound + 0.1
	if n := compareSets(&out, a, []*Report{run(1, 0), run(slow, 0), run(1.01, 0)}); n != 0 {
		t.Errorf("one slow run of three: %d violations", n)
	}
	if n := compareSets(&out, a, []*Report{run(slow, 0), run(slow, 0), run(1, 0)}); n != 1 {
		t.Errorf("two slow runs of three: %d violations, want 1", n)
	}

	missing := []*Report{{Workloads: []WorkloadResult{{Name: wlServeCold, Correct: true}}}}
	if n := compareSets(&out, a, missing); n != 4 {
		t.Errorf("a set missing every metric: %d violations, want 4", n)
	}
	if n := compareSets(&out, a, []*Report{{}}); n != 1 {
		t.Errorf("a set missing the workload: %d violations, want 1", n)
	}
	incorrect := run(1, 0)
	incorrect.Workloads[0].Correct = false
	if n := compareSets(&out, a, []*Report{incorrect}); n != 1 {
		t.Errorf("a run that failed its checks: %d violations, want 1", n)
	}
}
