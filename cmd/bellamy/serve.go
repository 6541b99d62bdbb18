package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/loadctl"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
)

// testHookServeReady, when set, receives the bound listen address once
// the server is accepting connections. Tests use it to drive a real
// serve process (with -addr :0) through its SIGTERM drain path.
var testHookServeReady func(addr string)

// shardRuntime bundles one shard's serving stack: its logger, the
// service, its durable store under dir (nil without -data-dir), and its
// lifecycle controller (nil without -observe). A single-shard deployment
// is one of these; -shards N builds N and routes between them.
type shardRuntime struct {
	log *slog.Logger
	dir string
	svc *serve.Service
	st  *store.Store
	ctl *lifecycle.Controller
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelsDir := fs.String("models", "", "directory of <job>_<env>.model files (required)")
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", 1, "in-process shard count; >1 partitions (job, env) keys over a consistent-hash ring and fans batches out per shard; a key's models, fine-tuned versions included, live on its owning shard only")
	observe := fs.Bool("observe", false, "accept runtime observations on POST /v1/observe and fine-tune served models online")
	ftInterval := fs.Duration("finetune-interval", lifecycle.DefaultInterval, "background fine-tune scan period")
	ftMinSamples := fs.Int("finetune-min-samples", lifecycle.DefaultMinSamples, "fresh observations per model that trigger a fine-tune")
	ftBuffer := fs.Int("observe-buffer", lifecycle.DefaultBufferCap, "per-model observation ring capacity")
	dataDir := fs.String("data-dir", "", "durable store directory (WAL + compacted segments + model checkpoints); sharded serving uses <dir>/shard-<i> per shard; empty disables durability")
	fsyncMode := fs.String("fsync", "always", "WAL durability: always (every append), interval (batched), never (OS page cache)")
	rate := fs.Float64("rate-limit", loadctl.DefaultRate, "per-client request rate limit in req/s, burst 2x (0 disables rate limiting)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on SIGTERM/SIGINT")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	traceSample := fs.Int("trace-sample", 0, "trace 1 in N requests without an X-Trace-Id header (0 = default 1 in 64); header-carrying requests are always traced")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelsDir == "" {
		return fmt.Errorf("serve: missing -models directory")
	}
	if *shards < 1 {
		return fmt.Errorf("serve: -shards %d must be at least 1", *shards)
	}
	logger := obs.NewLogger(os.Stdout, *logLevel, *logFormat)

	// buildNode assembles one shard's stack without starting its
	// background work; every shard starts once all are built and the
	// front is wired, so a shard that fails to build leaves no fine-tune
	// loop or compactor running. A lone shard logs through the root
	// logger and stores under -data-dir itself; one of several carries
	// its index in both, so interleaved output stays attributable and
	// WALs never interleave.
	buildNode := func(log *slog.Logger, dir string) (*shardRuntime, error) {
		n := &shardRuntime{log: log, dir: dir}
		n.svc = serve.NewService(serve.DirLoader(*modelsDir), serve.Options{})
		if dir != "" {
			policy, err := store.ParseFsyncPolicy(*fsyncMode)
			if err != nil {
				return nil, err
			}
			n.st, err = store.Open(dir, store.Options{Fsync: policy, Logger: log})
			if err != nil {
				return nil, err
			}
			// Checkpointed model versions take priority over the base model
			// files, so a restarted node serves the exact fine-tuned versions
			// (and version numbers) it crashed with.
			n.svc.Registry().SetVersionedLoader(serve.CheckpointLoader(serve.DirLoader(*modelsDir), n.st))
			n.svc.AttachStore(n.st)
		}
		if *observe {
			cfg := lifecycle.Config{
				MinSamples: *ftMinSamples,
				Interval:   *ftInterval,
				BufferCap:  *ftBuffer,
			}
			if n.st != nil {
				cfg.Log = n.st
				cfg.Checkpoint = n.st
			}
			n.ctl = lifecycle.New(n.svc.Registry(), cfg)
			n.ctl.OnSwap(func(key serve.ModelKey, version uint64) {
				log.Info("lifecycle: model hot-swapped",
					"job", key.Job, "env", key.Env, "version", version)
			})
			// AttachObserver also subscribes the result-cache invalidation,
			// so memoized predictions never outlive a swapped model.
			n.svc.AttachObserver(n.ctl)
			if n.st != nil {
				// Replay the durable history into the observation rings before
				// accepting traffic: each digest record names the ordinal its
				// fine-tune consumed through, so already-checkpointed work does
				// not re-trigger and later observations stay fresh.
				err := n.st.Replay(store.ReplayHandler{
					Observation: func(job, env string, s core.Sample, at time.Time) {
						n.ctl.Restore(serve.ModelKey{Job: job, Env: env}, s, at)
					},
					Digest: func(job, env string, through int, at time.Time) {
						n.ctl.RestoreDigest(serve.ModelKey{Job: job, Env: env}, through)
					},
				})
				if err != nil {
					// A corrupt sealed segment stops replay at its clean
					// prefix; serving continues on what was recovered.
					log.Warn("store: replay stopped early", "error", err)
				}
				rs := n.st.StoreStats()
				log.Info("store: recovered durable history",
					"observations", rs.ReplayedObservations, "digests", rs.ReplayedDigests,
					"dir", dir, "repaired_bytes", rs.RepairedBytes)
			}
		}
		return n, nil
	}

	// Every shard admits through its own gate at the loadctl defaults;
	// the limiter, when on, sits in front of all of them.
	var limiter *loadctl.Limiter
	if *rate > 0 {
		limiter = loadctl.NewLimiter(loadctl.LimiterConfig{Rate: *rate})
	}

	// Observability: one metrics registry and one tracer span the whole
	// process.
	registry := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(registry)
	const scratchHelp = "Bytes held by the idle workspace arenas every model call borrows from."
	registry.RegisterGaugeFunc("bellamy_scratch_bytes", scratchHelp, obs.Labels{"precision": "f32"},
		func() float64 { return float64(core.IdleScratchBytes()) })
	tracer := obs.NewTracer(obs.TracerOptions{SampleEvery: *traceSample})
	tracer.RegisterMetrics(registry, nil)
	o := &serve.Observability{Metrics: registry, Tracer: tracer, Log: logger}

	// The front is what answers /v1 (the same wire contract either way):
	// the one service itself, or a cluster routing to several. This is the
	// only place the two deployments differ.
	var nodes []*shardRuntime
	defer func() {
		for _, n := range nodes {
			if n.st != nil {
				n.st.Close()
			}
		}
	}()
	var front interface {
		Handler() http.Handler
		SetDraining(bool)
	}
	if *shards == 1 {
		n, err := buildNode(logger, *dataDir)
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
		n.svc.AttachLoadControl(serve.LoadControl{Limiter: limiter, Gate: loadctl.NewGate(loadctl.GateConfig{})})
		n.svc.AttachObs(o, nil)
		front = n.svc
	} else {
		cfgs := make([]shard.NodeConfig, *shards)
		for i := range cfgs {
			dir := *dataDir
			if dir != "" {
				dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
			}
			n, err := buildNode(logger.With("shard", i), dir)
			if err != nil {
				return err
			}
			nodes = append(nodes, n)
			// Per-shard series carry a {shard="i"} label; the router's own
			// counters are unlabelled.
			n.svc.AttachObs(o, obs.Labels{"shard": strconv.Itoa(i)})
			cfgs[i] = shard.NodeConfig{Service: n.svc, Gate: loadctl.NewGate(loadctl.GateConfig{})}
		}
		cluster, err := shard.New(cfgs, shard.Options{Limiter: limiter})
		if err != nil {
			return err
		}
		cluster.AttachObs(o)
		front = cluster
	}
	registry.RegisterGaugeFunc("bellamy_request_scratch_bytes",
		"Bytes held by the request scratch idle on the serving tier's free lists.", nil,
		func() float64 {
			b := serve.IdleRequestScratchBytes() + tracer.IdleBytes()
			if c, ok := front.(*shard.Cluster); ok {
				b += c.IdleFanoutBytes()
			}
			return float64(b)
		})
	handler := front.Handler()

	if *pprofOn {
		// pprof mounts on an outer mux so the serving surface itself
		// stays unaware of it; everything else falls through unchanged.
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
	}

	logger.Info("load control on", "rate_per_client", *rate,
		"max_queue", loadctl.DefaultMaxQueue, "max_wait", loadctl.DefaultMaxWait,
		"max_deadline", serve.DefaultMaxDeadline)

	// Start the background machinery only after every hook is wired.
	for _, n := range nodes {
		if n.ctl != nil {
			n.ctl.Start()
			defer n.ctl.Stop()
		}
		if n.st != nil {
			n.st.Start()
			n.log.Info("durable store on", "fsync", *fsyncMode, "compact_interval", store.DefaultCompactInterval)
		}
	}
	if *observe {
		logger.Info("online fine-tuning on",
			"interval", *ftInterval, "min_samples", *ftMinSamples)
	}

	srv := &http.Server{
		Handler: handler,
		// Full-request read and write bounds (not just headers): a
		// slow-loris client trickling its body, or one never draining the
		// response, is cut off instead of pinning a connection forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// The signal handler goes in before the listener exists: from the
	// moment a client can reach the port (and an orchestrator can see it
	// answer), SIGTERM must mean "drain", never the runtime's default of
	// dying on the spot with the WAL unsealed.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("serving models", "dir", *modelsDir, "addr", ln.Addr().String(), "shards", *shards, "pprof", *pprofOn,
		"mat_kernel", mat.KernelFamily())
	logger.Info("endpoints: POST /v1/predict, POST /v1/predict/batch, POST /v1/allocate, POST /v1/observe, GET /v1/stats, GET /metrics, GET /v1/debug/slow, GET /healthz; with -shards > 1 also GET /v1/shards")
	if testHookServeReady != nil {
		testHookServeReady(ln.Addr().String())
	}

	// Serve until SIGTERM/SIGINT, then drain: mark not-ready so load
	// balancers stop sending work, let in-flight requests finish, digest
	// pending observations into a final checkpoint, and seal the WAL.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("draining on signal", "signal", sig.String(), "timeout", *drainTimeout)
	}
	front.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Stragglers past the timeout are abandoned, but everything
		// below still runs: the WAL seal must happen regardless.
		logger.Warn("drain: shutdown incomplete", "error", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("drain: server error", "error", err)
	}
	for _, n := range nodes {
		if n.ctl != nil {
			if nd := n.ctl.Drain(); nd > 0 {
				n.log.Info("drain: digested pending observations", "model_versions", nd)
			}
		}
	}
	for _, n := range nodes {
		if n.st != nil {
			if err := n.st.Close(); err != nil {
				return fmt.Errorf("drain: closing store %s: %w", n.dir, err)
			}
			n.log.Info("drain: store sealed")
		}
	}
	logger.Info("drain: complete")
	return nil
}
