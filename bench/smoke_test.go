package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload for one one-second round against the
// real binary and the ladder at 50 calls per rung, so the benchmark
// cannot rot when the code it calls changes. It asserts correctness and
// shape, never speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the real server")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	env := &benchEnv{
		root: root, work: work, bin: filepath.Join(work, "bellamy"), seed: 1,
		conns: runtime.NumCPU(), servedEpochs: 3, qualityEpochs: 40,
	}
	var ws []workload
	for _, n := range workloadNames {
		w, err := newWorkload(n, env)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	opt := runOpts{rounds: 1, roundDur: time.Second, warmup: 300 * time.Millisecond, setupReps: 1}
	results := runWorkloads(ws, opt, io.Discard)

	live.Lock()
	alive := len(live.procs)
	live.Unlock()
	if alive != 0 {
		t.Errorf("%d server processes outlived the run", alive)
	}
	if left, _ := filepath.Glob(filepath.Join(work, "*-*")); len(left) != 0 {
		t.Errorf("model and data directories left behind: %v", left)
	}

	wantE2E := map[string][]string{
		wlServeHot:    {"setup_s", "predict_p50_us", "error_rate", "server_rss_mb"},
		wlServeCold:   {"setup_s", "batch_p50_ms", "allocate_p50_us", "error_rate", "server_rss_mb"},
		wlOnlineAdapt: {"setup_s", "predict_p50_us", "observe_p50_us", "adapt_lag_p50_ms", "error_rate", "server_rss_mb"},
		wlTrainReuse:  {"setup_s", "pretrain_epoch_p50_ms", "finetune_p50_ms", "mre_interp", "mre_extrap"},
	}
	for i := range results {
		r := &results[i]
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d failed: %v", r.Name, r.Correct, r.Failed, r.Attempted, r.Failures)
		}
		for _, name := range wantE2E[r.Name] {
			m, ok := r.metric(name)
			if !ok || m.Kind != kindE2E || m.Samples == 0 || (m.Value <= 0 && name != "error_rate") {
				t.Errorf("%s: end-to-end metric %s = %+v (reported: %v)", r.Name, name, m, ok)
			}
		}
		line, err := contractLine(r, false)
		var got contractResult
		if err != nil || json.Unmarshal([]byte(line), &got) != nil || !got.Correct || len(got.Metrics) != len(contractE2E) {
			t.Errorf("%s: result line %s (%v)", r.Name, line, err)
		}
	}
	if m, _ := results[2].metric("lifecycle.swaps"); m.Value < 1 {
		t.Errorf("online-adapt saw %v swaps in its round", m.Value)
	}

	lad, err := runLadder(generateInputs(1, allParts), filepath.Join(work, "ladder"), env.servedEpochs, ladderScale{fast: 50, slow: 2})
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	got := map[string]float64{}
	for _, m := range lad.metrics("") {
		got[m.Name] = m.Value
	}
	for _, d := range contractLayers {
		if r, isRung := lad.result(d.Name); isRung && !(r.median > 0) && d.Name != "obs.trace_overhead_ns" {
			t.Errorf("rung %s measured %v", d.Name, r.median)
		}
	}
	for _, name := range []string{"mat.gemm256_gflops", "store.replay_krec_per_s", "serve.handler_hit_allocs", "serve.loopback_hit_allocs"} {
		if !(got[name] > 0) {
			t.Errorf("ladder did not produce %s", name)
		}
	}
	// The same request costs more the further out it is measured. Only
	// rungs several times apart are compared: at 50 calls per rung on a
	// busy test host, neighbours like Service.Predict on a miss and the
	// forward pass inside it can swap places.
	chain := []string{"serve.loopback_hit_us", "serve.handler_hit_ns", "core.infer_single_ns", "serve.predict_hit_ns"}
	for i := 0; i+1 < len(chain); i++ {
		up, _ := lad.result(chain[i])
		down, _ := lad.result(chain[i+1])
		if up.median*float64(unitDuration(up.unit)) < down.median*float64(unitDuration(down.unit)) {
			t.Errorf("%s (%v %s) is cheaper than %s (%v %s) inside it", up.name, up.median, up.unit, down.name, down.median, down.unit)
		}
	}
	lad.printChains(io.Discard)

	out := t.TempDir()
	if err := lad.writeTraces(out, workloadNames); err != nil {
		t.Fatal(err)
	}
	for _, n := range workloadNames {
		raw, err := os.ReadFile(filepath.Join(out, "trace-"+n+".json"))
		var spans []span
		if err != nil || json.Unmarshal(raw, &spans) != nil || len(spans) == 0 {
			t.Errorf("trace-%s.json: %v, %d spans", n, err, len(spans))
			continue
		}
		for _, s := range spans {
			if s.Name == "" || s.EndNS < s.StartNS {
				t.Errorf("trace-%s.json: malformed span %+v", n, s)
				break
			}
		}
	}
}
