package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/mat"
)

// Metric kinds in a report.
const (
	kindE2E   = "e2e"   // one of the twelve end-to-end metrics, carries a bound
	kindLayer = "layer" // per-layer rung, scraped count or driver diagnostic
)

// Metric is one named number of a workload's result.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Samples is how many measurements the value was reduced from.
	Samples int `json:"samples"`
	// RoundMin / RoundMax are the smallest and largest per-round value
	// of a rounds-median metric (equal to Value for single-shot ones).
	RoundMin float64 `json:"round_min"`
	RoundMax float64 `json:"round_max"`
	// Bound is the share by which an end-to-end metric may worsen before
	// -compare calls it a regression; 0 on error_rate means any increase.
	Bound float64 `json:"bound,omitempty"`
}

// e2eDef declares an end-to-end metric: all are lower-is-better.
type e2eDef struct {
	Name, Unit string
	Bound      float64
	// On lists the workloads that report it.
	On []string
}

var serveWorkloads = []string{wlServeHot, wlServeCold, wlOnlineAdapt}

// e2eDefs is the one table of end-to-end metrics: -compare reads its
// bounds out of the reports, BENCHMARK.json's driver-facing list takes
// its bounds from it (contract.go), and a run that lacks a metric on a
// workload named here is incorrect. Bounds that the repeat runs forced
// wider than the issue proposed are recorded with their measurements in
// README.md.
var e2eDefs = []e2eDef{
	{"setup_s", "s", 0.25, workloadNames},
	{"predict_p50_us", "us", 0.25, []string{wlServeHot, wlOnlineAdapt}},
	{"batch_p50_ms", "ms", 0.25, []string{wlServeCold}},
	{"allocate_p50_us", "us", 0.25, []string{wlServeCold}},
	{"observe_p50_us", "us", 0.25, []string{wlOnlineAdapt}},
	{"adapt_lag_p50_ms", "ms", 0.25, []string{wlOnlineAdapt}},
	{"error_rate", "ratio", 0, serveWorkloads},
	{"server_rss_mb", "MB", 0.10, serveWorkloads},
	{"pretrain_epoch_p50_ms", "ms", 0.15, []string{wlTrainReuse}},
	{"finetune_p50_ms", "ms", 0.15, []string{wlTrainReuse}},
	{"mre_interp", "ratio", 0.05, []string{wlTrainReuse}},
	{"mre_extrap", "ratio", 0.05, []string{wlTrainReuse}},
}

func e2eBound(name string) (e2eDef, bool) {
	for _, d := range e2eDefs {
		if d.Name == name {
			return d, true
		}
	}
	return e2eDef{}, false
}

// WorkloadResult is everything one workload produced.
type WorkloadResult struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []Metric `json:"metrics"`
	// StealPerRound is the host steal share of each measured round; a
	// round far above the others explains a wide round spread.
	StealPerRound []float64 `json:"steal_per_round,omitempty"`
	WallSec       float64   `json:"wall_s"`
}

func (r *WorkloadResult) metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// add appends a metric, dropping a NaN (nothing was measured) so the
// report stays valid JSON; absent metrics fail the checks that need
// them.
func (r *WorkloadResult) add(m Metric) {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return
	}
	if m.Samples <= 1 {
		m.RoundMin, m.RoundMax = m.Value, m.Value
	}
	r.Metrics = append(r.Metrics, m)
}

func (r *WorkloadResult) addE2E(name string, value float64, samples int, lo, hi float64) {
	d, ok := e2eBound(name)
	if !ok {
		panic("bench: unknown end-to-end metric " + name)
	}
	r.add(Metric{Name: name, Kind: kindE2E, Unit: d.Unit, Value: value,
		Samples: samples, RoundMin: lo, RoundMax: hi, Bound: d.Bound})
}

// addE2EValue reports an end-to-end metric that is one reading, not a
// rounds-median.
func (r *WorkloadResult) addE2EValue(name string, value float64, samples int) {
	r.addE2E(name, value, samples, value, value)
}

func (r *WorkloadResult) addStat(name string, st roundStat) {
	r.addE2E(name, st.Value, st.Samples, st.RoundMin, st.RoundMax)
}

func (r *WorkloadResult) addLayer(name, unit string, value float64, samples int) {
	r.add(Metric{Name: name, Kind: kindLayer, Unit: unit, Value: value, Samples: samples})
}

// fail records a failed correctness check; the first few messages are
// kept for the report.
func (r *WorkloadResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// Meta records where and how a report was produced.
type Meta struct {
	GitRev       string  `json:"git_rev"`
	GoVersion    string  `json:"go_version"`
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	MatKernel    string  `json:"mat_kernel"`
	Seed         int64   `json:"seed"`
	Rounds       int     `json:"rounds"`
	RoundSeconds float64 `json:"round_seconds"`
	Trace        bool    `json:"trace"`
}

// Report is the file -compare reads: one per invocation.
type Report struct {
	Meta      Meta             `json:"meta"`
	Workloads []WorkloadResult `json:"workloads"`
}

func collectMeta(root string, seed int64, rounds int, roundSec float64, trace bool) Meta {
	m := Meta{
		GitRev:       "unknown",
		GoVersion:    runtime.Version(),
		CPUModel:     "unknown",
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		MatKernel:    mat.KernelFamily(),
		Seed:         seed,
		Rounds:       rounds,
		RoundSeconds: roundSec,
		Trace:        trace,
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		m.GitRev = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func (rep *Report) write(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing report: %w", err)
	}
	return nil
}

func loadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading report: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("bench: decoding report %s: %w", path, err)
	}
	return &rep, nil
}

// print writes the human-readable form: the end-to-end metrics with
// unit, sample count and round spread, then the layer metrics.
func (rep *Report) print(w io.Writer) {
	m := rep.Meta
	fmt.Fprintf(w, "bench: rev %s, %s, %q, nproc %d, GOMAXPROCS %d, mat kernel %s, seed %d, %d rounds x %.1fs\n",
		m.GitRev, m.GoVersion, m.CPUModel, m.NProc, m.GOMAXPROCS, m.MatKernel, m.Seed, m.Rounds, m.RoundSeconds)
	for i := range rep.Workloads {
		r := &rep.Workloads[i]
		status := "correct"
		if !r.Correct {
			status = "INCORRECT"
		}
		fmt.Fprintf(w, "\n== %s: %s, %d attempted, %d failed, wall %.1fs\n", r.Name, status, r.Attempted, r.Failed, r.WallSec)
		for _, f := range r.Failures {
			fmt.Fprintf(w, "   check failed: %s\n", f)
		}
		if len(r.StealPerRound) > 0 {
			fmt.Fprintf(w, "   host steal per round:")
			for _, s := range r.StealPerRound {
				fmt.Fprintf(w, " %.2f", s)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "   %-26s %12s %-6s %9s  %s\n", "end-to-end metric", "value", "unit", "samples", "rounds min..max (bound)")
		for _, x := range r.Metrics {
			if x.Kind == kindE2E {
				fmt.Fprintf(w, "   %-26s %12.4f %-6s %9d  %.4f..%.4f (%.2f)\n",
					x.Name, x.Value, x.Unit, x.Samples, x.RoundMin, x.RoundMax, x.Bound)
			}
		}
		var layer bool
		for _, x := range r.Metrics {
			if x.Kind != kindLayer {
				continue
			}
			if !layer {
				fmt.Fprintf(w, "   %-34s %14s %-6s %9s\n", "layer / diagnostic", "value", "unit", "samples")
				layer = true
			}
			fmt.Fprintf(w, "   %-34s %14.4f %-6s %9d\n", x.Name, x.Value, x.Unit, x.Samples)
		}
	}
}
