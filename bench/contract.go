package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// BENCHMARK.json describes this benchmark to a driver that runs one
// workload at a time, wants every end-to-end metric it lists from every
// workload, never zero, and accepts the benchmark only if two sets of
// ten runs taken one after the other agree within each metric's bound.
// Of the twelve end-to-end metrics (e2eDefs) only the set-up time exists
// on all four workloads, and no latency measured on this host holds the
// largest bound the driver allows, 0.25, from one half hour to the next
// (README.md, "Host phases"): by the rule of the issue that introduced
// the benchmark, a timing that needs more than 0.25 is a diagnostic. So
// the driver-facing list is what every workload has and what repeats:
// its set-up time and the peak memory of the process doing the work. The
// twelve are in the report, where -compare gates them over sets of runs,
// and in the traced result line as e2e.* (README.md, "Two metric lists").

// driverMetric is one entry of BENCHMARK.json's end_to_end list.
type driverMetric struct {
	Name, Unit string
	// from names, by workload, the metric of the report it carries.
	from map[string]string
}

var contractE2E = []driverMetric{
	{"setup_s", "s", map[string]string{
		wlServeHot: "setup_s", wlServeCold: "setup_s", wlOnlineAdapt: "setup_s", wlTrainReuse: "setup_s"}},
	// train-reuse has no server: the benchmark process does the work.
	{"rss_mb", "MB", map[string]string{
		wlServeHot: "server_rss_mb", wlServeCold: "server_rss_mb",
		wlOnlineAdapt: "server_rss_mb", wlTrainReuse: "driver.self_rss_mb"}},
}

// bound is the widest bound among the end-to-end metrics d carries: the
// driver holds one bound per name, e2eDefs one per metric.
func (d driverMetric) bound() float64 {
	var b float64
	for _, name := range d.from {
		if def, ok := e2eBound(name); ok {
			b = max(b, def.Bound)
		}
	}
	return b
}

// layerDef declares one per-layer metric of the traced result line.
type layerDef struct {
	Name, Unit string
	// On lists the workloads that report it; nil means all of them (a
	// traced driver run takes the whole ladder on every workload).
	On []string
}

var (
	onCold      = []string{wlServeCold}
	onAdapt     = []string{wlOnlineAdapt}
	onTrain     = []string{wlTrainReuse}
	onPredictor = []string{wlServeHot, wlOnlineAdapt}
)

// contractLayers is BENCHMARK.json's per_layer list: every ladder rung,
// the counts scraped from the server, the driver's diagnostics, and the
// end-to-end metrics under e2e.*. The driver wants every name from every
// workload, so a metric that is not defined on a workload reads 0 there;
// one that is defined and was not measured makes the run incorrect
// (missingMetrics).
var contractLayers = append([]layerDef{
	{Name: "mat.sgemm_serve_us", Unit: "us"}, {Name: "mat.dgemm_train_us", Unit: "us"},
	{Name: "mat.gemm256_us", Unit: "us"}, {Name: "mat.gemm256_gflops", Unit: "gflops"},
	{Name: "nn.infer32_forward_us", Unit: "us"}, {Name: "encoding.encode_query_ns", Unit: "ns"},
	{Name: "core.infer_single_ns", Unit: "ns"}, {Name: "core.infer_batch256_us", Unit: "us"},
	{Name: "core.finetune_8_ms", Unit: "ms"}, {Name: "core.finetune_64_ms", Unit: "ms"},
	{Name: "core.clone_us", Unit: "us"}, {Name: "core.save_us", Unit: "us"},
	{Name: "core.load_us", Unit: "us"}, {Name: "core.quantize_us", Unit: "us"},
	{Name: "baselines.nnls_fit_us", Unit: "us"}, {Name: "baselines.bell_fit_us", Unit: "us"},
	{Name: "allocate.sweep64_us", Unit: "us"}, {Name: "allocate.sweep64_allocs", Unit: "count"},
	{Name: "api.predict_decode_ns", Unit: "ns"}, {Name: "api.predict_encode_ns", Unit: "ns"},
	{Name: "api.batch256_decode_us", Unit: "us"}, {Name: "api.batch256_encode_us", Unit: "us"},
	{Name: "loadctl.limiter_allow_ns", Unit: "ns"}, {Name: "loadctl.gate_acquire_release_ns", Unit: "ns"},
	{Name: "serve.predict_hit_ns", Unit: "ns"}, {Name: "serve.predict_miss_ns", Unit: "ns"},
	{Name: "serve.predict_miss_traced_ns", Unit: "ns"}, {Name: "serve.predict_batch256_us", Unit: "us"},
	{Name: "serve.handler_hit_ns", Unit: "ns"}, {Name: "serve.handler_hit_allocs", Unit: "count"},
	{Name: "serve.handler_batch256_us", Unit: "us"},
	{Name: "serve.loopback_hit_us", Unit: "us"}, {Name: "serve.loopback_hit_allocs", Unit: "count"},
	{Name: "serve.model_load_us", Unit: "us"}, {Name: "serve.swap_invalidate_us", Unit: "us"},
	{Name: "shard.handler1_hit_ns", Unit: "ns"}, {Name: "shard.handler2_hit_ns", Unit: "ns"},
	{Name: "shard.handler2_batch256_us", Unit: "us"}, {Name: "shard.broadcast_apply_us", Unit: "us"},
	{Name: "lifecycle.observe_ns", Unit: "ns"}, {Name: "lifecycle.runonce_ms", Unit: "ms"},
	{Name: "store.append_never_ns", Unit: "ns"}, {Name: "store.append_interval_ns", Unit: "ns"},
	{Name: "store.append_always_us", Unit: "us"}, {Name: "store.checkpoint_us", Unit: "us"},
	{Name: "store.replay_krec_per_s", Unit: "krec/s"}, {Name: "store.open_recover_ms", Unit: "ms"},
	{Name: "obs.trace_overhead_ns", Unit: "ns"},

	{"serve.result_hit_ratio", "ratio", serveWorkloads}, {"serve.gate_bypass_ratio", "ratio", serveWorkloads},
	{"shard.batch_fanouts", "count", onCold},
	{"lifecycle.finetunes", "count", onAdapt}, {"lifecycle.swaps", "count", onAdapt},
	{"lifecycle.mean_finetune_ms", "ms", onAdapt}, {"store.fsyncs_per_append", "ratio", onAdapt},
	{"cmd.server_cpu_us_per_req", "us", serveWorkloads}, {"cmd.server_start_ms", "ms", serveWorkloads},
	{"cmd.drain_ms", "ms", serveWorkloads},
	{"driver.req_per_s", "1/s", serveWorkloads}, {"driver.predict_p99_us", "us", onPredictor},
	{"driver.batch_p99_ms", "ms", onCold}, {"driver.allocate_p99_us", "us", onCold},
	{"driver.observe_p99_us", "us", onAdapt}, {"driver.adapt_lag_p90_ms", "ms", onAdapt},
	{"driver.finetune_p99_ms", "ms", onTrain}, {"driver.train_passes", "count", onTrain},
	{Name: "driver.wall_s", Unit: "s"}, {Name: "driver.host_steal_frac", Unit: "ratio"},
	{"driver.self_rss_mb", "MB", onTrain},
	{"driver.null_p50_us", "us", serveWorkloads}, {"driver.op_per_null", "ratio", serveWorkloads},
	{"baselines.nnls_mre_interp", "ratio", onTrain}, {"baselines.bell_mre_interp", "ratio", onTrain},
}, e2eLayers()...)

// e2eLayers lists the end-to-end metrics but setup_s (a traced run sets
// up like any other) as e2e.* entries of the per-layer list.
func e2eLayers() []layerDef {
	var out []layerDef
	for _, d := range e2eDefs {
		if d.Name != "setup_s" {
			out = append(out, layerDef{"e2e." + d.Name, d.Unit, d.On})
		}
	}
	return out
}

func reportedOn(on []string, workload string) bool {
	return on == nil || slices.Contains(on, workload)
}

// missingMetrics names what res must carry and does not: every
// end-to-end metric defined on its workload and, for a traced run, every
// per-layer metric defined on it but the driver's own diagnostics (a
// tail percentile needs ten samples beyond it). A metric that stopped
// being measured must fail the run, not read as zero.
func missingMetrics(res *WorkloadResult, traced bool) []string {
	var missing []string
	for _, d := range e2eDefs {
		if _, ok := res.metric(d.Name); !ok && reportedOn(d.On, res.Name) {
			missing = append(missing, d.Name)
		}
	}
	if traced {
		for _, d := range contractLayers {
			if strings.HasPrefix(d.Name, "driver.") || !reportedOn(d.On, res.Name) {
				continue
			}
			if _, ok := res.metric(strings.TrimPrefix(d.Name, "e2e.")); !ok {
				missing = append(missing, d.Name)
			}
		}
	}
	return missing
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the one JSON object a driver reads from the last
// line of standard output.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// contractLine renders res for the driver: the driver-facing end-to-end
// metrics for an untraced run, every per-layer metric for a traced one.
// A driver-facing value that is missing or not positive makes the run
// incorrect.
func contractLine(res *WorkloadResult, traced bool) (string, error) {
	out := contractResult{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed,
		Metrics: map[string]contractValue{}}
	if traced {
		for _, d := range contractLayers {
			m, _ := res.metric(strings.TrimPrefix(d.Name, "e2e."))
			out.Metrics[d.Name] = contractValue{Value: m.Value, Unit: d.Unit}
		}
	} else {
		for _, d := range contractE2E {
			m, ok := res.metric(d.from[res.Name])
			if !ok || !(m.Value > 0) {
				out.Correct = false
			}
			out.Metrics[d.Name] = contractValue{Value: m.Value, Unit: d.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("bench: encoding the result line: %w", err)
	}
	return string(b), nil
}
