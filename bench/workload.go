package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Workload names, as BENCHMARK.json and -workload spell them.
const (
	wlServeHot    = "serve-hot"
	wlServeCold   = "serve-cold"
	wlOnlineAdapt = "online-adapt"
	wlTrainReuse  = "train-reuse"
)

var workloadNames = []string{wlServeHot, wlServeCold, wlOnlineAdapt, wlTrainReuse}

// benchEnv is what every workload of one invocation shares.
type benchEnv struct {
	root string // module root, where `go build ./cmd/bellamy` runs
	work string // scratch directory of this invocation, removed at exit
	bin  string // the built bellamy binary
	seed int64
	// conns is the closed-loop connection count: nproc. More would only
	// queue on the two vCPUs, and a goroutine per request measures the
	// generator.
	conns int
	// servedEpochs pre-trains the served models (quality is irrelevant
	// to serving cost); qualityEpochs pre-trains train-reuse's general
	// model.
	servedEpochs  int
	qualityEpochs int
}

// workload is one traffic mix or training job. The runner calls Setup
// (several times, tearing down in between, to time it), then Run for
// the warm-up and for every round, Boundary around the measured phase,
// Teardown, and finally Report.
type workload interface {
	Name() string
	Setup() error
	Teardown() error
	Run(d time.Duration) *recorder
	Boundary() error
	Report(res *WorkloadResult, rounds []*recorder, roundDur time.Duration)
}

func newWorkload(name string, env *benchEnv) (workload, error) {
	switch name {
	case wlServeHot:
		return newServeHot(env), nil
	case wlServeCold:
		return newServeCold(env), nil
	case wlOnlineAdapt:
		return newOnlineAdapt(env), nil
	case wlTrainReuse:
		return newTrainReuse(env), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames)
}

// serveBase is the part the three serve workloads share: train and
// write the served models, spawn the server, scrape it at the
// boundaries of the measured phase, drain it.
type serveBase struct {
	env     *benchEnv
	name    string
	sharded bool
	nconns  int
	parts   inputParts // input pools the workload sends
	// headlineOp is the operation driver.op_per_null sets against the
	// null request.
	headlineOp string
	// flags are the `bellamy serve` flags beyond the defaults.
	flags func(dataDir string) []string
	// prefill, when set, prepares the data directory before the server
	// starts.
	prefill func(in *inputs, modelsDir, dataDir string) error

	in    *inputs
	dir   string
	srv   *server
	cl    *client
	setup int // Setup calls so far, names the directories

	bounds  []scrape
	cpu     []float64
	rssMB   float64
	startMS float64
	drainMS float64
}

func (b *serveBase) Name() string { return b.name }

// trainServedModels pre-trains one model per served job and writes it
// under each of the job's keys.
func trainServedModels(in *inputs, dir string, epochs int) error {
	for _, job := range servedJobs {
		cfg := core.DefaultConfig()
		cfg.PretrainEpochs = epochs
		cfg.Seed = in.Seed
		m, err := core.New(cfg)
		if err != nil {
			return err
		}
		if _, err := m.Pretrain(in.servedCorpus(job)); err != nil {
			return fmt.Errorf("bench: pre-training %s: %w", job, err)
		}
		for _, env := range servedEnvs {
			path := filepath.Join(dir, serve.ModelFileName(serve.ModelKey{Job: job, Env: env}))
			if err := m.SaveFile(path); err != nil {
				return fmt.Errorf("bench: writing %s: %w", path, err)
			}
		}
	}
	return nil
}

// Setup is everything before the first warm-up request: build the
// binary, generate the inputs, train and write the model files, start
// the server and wait for /healthz.
func (b *serveBase) Setup() error {
	if err := buildServer(b.env.root, b.env.bin); err != nil {
		return err
	}
	b.in = generateInputs(b.env.seed, b.parts)
	b.setup++
	b.dir = filepath.Join(b.env.work, fmt.Sprintf("%s-%d", b.name, b.setup))
	models := filepath.Join(b.dir, "models")
	data := filepath.Join(b.dir, "data")
	if err := os.MkdirAll(models, 0o755); err != nil {
		return err
	}
	if err := trainServedModels(b.in, models, b.env.servedEpochs); err != nil {
		return err
	}
	if b.prefill != nil {
		if err := b.prefill(b.in, models, data); err != nil {
			return err
		}
	}
	// The limiter stays on the request path with a limit no connection
	// reaches: a 429 here is an error, not a result.
	args := append([]string{"-models", models, "-rate-limit", "1000000"}, b.flags(data)...)
	srv, cl, err := startServer(b.env.bin, args, b.nconns)
	if err != nil {
		return err
	}
	b.srv, b.cl, b.startMS = srv, cl, srv.startMS
	return nil
}

// Teardown drains the server (exit code 0 or it is an error) and
// removes the model and data directories.
func (b *serveBase) Teardown() error {
	if b.srv == nil {
		return nil
	}
	b.cl.close()
	drain, err := b.srv.stop()
	b.drainMS = drain
	b.srv, b.cl = nil, nil
	if rmErr := os.RemoveAll(b.dir); err == nil {
		err = rmErr
	}
	return err
}

// Boundary reads the server's counters, CPU time and peak RSS; the
// runner calls it right before the first and right after the last
// measured round.
func (b *serveBase) Boundary() error {
	sc, err := scrapeStats(b.cl, b.sharded)
	if err != nil {
		return err
	}
	cpu, err := procCPUSeconds(b.srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	b.bounds = append(b.bounds, sc)
	b.cpu = append(b.cpu, cpu)
	b.rssMB, err = procRSSPeakMB(b.srv.cmd.Process.Pid)
	return err
}

// apiKey names connection i for the per-client rate limiter.
func apiKey(i int) string { return fmt.Sprintf("bench-conn-%d", i) }

// opRounds extracts one operation's samples round by round.
func opRounds(rounds []*recorder, op string) [][]time.Duration {
	out := make([][]time.Duration, len(rounds))
	for i, r := range rounds {
		out[i] = r.lat[op]
	}
	return out
}

// reportCommon fills what every serve workload reports: error rate,
// peak RSS, cache ratios, server CPU per request, start and drain time
// and the request rate.
func (b *serveBase) reportCommon(res *WorkloadResult, rounds []*recorder, roundDur time.Duration) {
	if res.Attempted > 0 {
		res.addE2EValue("error_rate", float64(res.Failed)/float64(res.Attempted), int(res.Attempted))
	}
	res.addE2EValue("server_rss_mb", b.rssMB, 1)
	res.addLayer("cmd.server_start_ms", "ms", b.startMS, 1)
	res.addLayer("cmd.drain_ms", "ms", b.drainMS, 1)
	null := reduceRounds(opRounds(rounds, "null"), time.Microsecond, 0.99)
	res.addLayer("driver.null_p50_us", "us", null.Value, null.Samples)
	// The headline operation against the null request of the same round:
	// what the handlers add over the least the server can be asked. It
	// holds still when the host changes speed and the code did not.
	var ratios []float64
	for _, r := range rounds {
		op, ref := r.lat[b.headlineOp], r.lat["null"]
		if len(op) > 0 && len(ref) > 0 {
			ratios = append(ratios, p50(op, time.Microsecond)/p50(ref, time.Microsecond))
		}
	}
	res.addLayer("driver.op_per_null", "ratio", median(ratios), len(ratios))
	// Null requests are not attempts, so the workload's own requests are
	// the denominator of every per-request figure.
	answered := int(res.Attempted - res.Failed)
	if total := roundDur * time.Duration(len(rounds)); total > 0 {
		res.addLayer("driver.req_per_s", "1/s", float64(answered)/total.Seconds(), answered)
	}
	if len(b.bounds) != 2 {
		res.fail("%s: stats were not scraped at both boundaries of the measured phase", b.name)
		return
	}
	first, last := b.bounds[0], b.bounds[1]
	hits, misses := last.ResultHits-first.ResultHits, last.ResultMisses-first.ResultMisses
	if hits+misses > 0 {
		res.addLayer("serve.result_hit_ratio", "ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	if answered > 0 {
		res.addLayer("serve.gate_bypass_ratio", "ratio", float64(last.GateBypassed-first.GateBypassed)/float64(answered), answered)
		res.addLayer("cmd.server_cpu_us_per_req", "us", (b.cpu[1]-b.cpu[0])*1e6/float64(answered), answered)
	}
}
