// Command bench is the repository's one benchmark: four seeded
// workloads against the real `bellamy serve` binary or the public core
// API, twelve end-to-end metrics, and a traced per-layer ladder.
//
//	go run ./bench -seed 1            all four workloads, rounds interleaved
//	go run ./bench -seed 1 -trace     the same, then the per-layer ladder
//	go run ./bench -compare a1.json,a2.json b1.json,b2.json
//	go run ./bench --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// The last form is what BENCHMARK.json declares: one workload per
// invocation and one JSON object on the last line of standard output.
// See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// mergeTraceValue lets -trace be both the switch the issue describes
// (`-trace`) and the valued flag a driver passes (`--trace 0`): a
// following 0 or 1 is folded into -trace=N before flag parsing.
func mergeTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	workloadName := fs.String("workload", "", "run one workload and print the driver's result line (default: all four, rounds interleaved)")
	seconds := fs.Int("seconds", 40, "measured seconds per workload, split into 5 rounds")
	trace := fs.Bool("trace", false, "also run the traced per-layer ladder and write trace-<workload>.json")
	outDir := fs.String("out", "", "directory for report.json and trace-*.json (default: a fresh directory under .bench_build, printed)")
	compare := fs.Bool("compare", false, "compare two sets of report.json files by their medians: bench -compare a1.json,a2.json b1.json,b2.json")
	if err := fs.Parse(mergeTraceValue(args)); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("bench: -compare takes two report files, got %d", fs.NArg()))
		}
		a, err := loadSet(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := loadSet(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if n := compareSets(stdout, a, b); n > 0 {
			fmt.Fprintf(stdout, "%d end-to-end metrics outside their bound\n", n)
			return 1
		}
		fmt.Fprintln(stdout, "every end-to-end metric within its bound")
		return 0
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("bench: -seconds must be positive"))
	}

	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	// Everything the run writes lives under .bench_build in the checkout
	// (git-ignored): the built binary, model files, WALs, reports.
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return fail(err)
	}
	cleanup := func() {
		killLiveServers()
		os.RemoveAll(work)
	}
	defer cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup()
		os.Exit(130)
	}()

	single := *workloadName != ""
	names := workloadNames
	if single {
		names = []string{*workloadName}
	}
	env := &benchEnv{
		root: root, work: work, bin: filepath.Join(build, "bellamy"), seed: *seed,
		conns: runtime.NumCPU(), servedEpochs: 10, qualityEpochs: 120,
	}
	var ws []workload
	for _, n := range names {
		w, err := newWorkload(n, env)
		if err != nil {
			return fail(err)
		}
		ws = append(ws, w)
	}

	// A traced driver run measures as long as an untraced one, so the
	// e2e.* values of its result line are the same measurement; its ladder
	// takes fewer calls per rung to fit the driver's time budget.
	scale := fullScale
	if single {
		scale = quickScale
	}
	opt := runOpts{rounds: measuredRounds, roundDur: time.Duration(*seconds) * time.Second / measuredRounds,
		warmup: 3 * time.Second, setupReps: 3}
	if single {
		opt.warmup = 2 * time.Second
	}

	rep := &Report{Meta: collectMeta(root, *seed, opt.rounds, opt.roundDur.Seconds(), *trace)}
	runStart := time.Now()
	rep.Workloads = runWorkloads(ws, opt, stdout)
	runWall := time.Since(runStart)

	dir := *outDir
	switch {
	case dir != "":
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
	case single:
		dir = work // the driver reads standard output; leave nothing behind
	default:
		if dir, err = os.MkdirTemp(build, "out-"); err != nil {
			return fail(err)
		}
	}

	var lad *ladder
	if *trace {
		ladderStart := time.Now()
		ladderWork := filepath.Join(work, "ladder")
		lad, err = runLadder(generateInputs(*seed, allParts), ladderWork, env.servedEpochs, scale)
		if err != nil {
			for i := range rep.Workloads {
				rep.Workloads[i].fail("ladder: %v", err)
			}
		}
		if lad != nil {
			for i := range rep.Workloads {
				r := &rep.Workloads[i]
				group := r.Name
				if single {
					group = "" // the driver wants every layer from every run
				}
				for _, m := range lad.metrics(group) {
					r.add(m)
				}
			}
			if err := lad.writeTraces(dir, names); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "bench: untraced run %.1fs, traced ladder %.1fs, spans in %s\n",
				runWall.Seconds(), time.Since(ladderStart).Seconds(), dir)
		}
	}

	for i := range rep.Workloads {
		r := &rep.Workloads[i]
		for _, name := range missingMetrics(r, single && *trace) {
			r.fail("%s: %s was not measured", r.Name, name)
		}
	}
	rep.print(stdout)
	if lad != nil {
		fmt.Fprintln(stdout)
		lad.printChains(stdout)
	}
	reportPath := filepath.Join(dir, "report.json")
	if err := rep.write(reportPath); err != nil {
		return fail(err)
	}
	if !single || *outDir != "" {
		fmt.Fprintf(stdout, "\nbench: report written to %s\n", reportPath)
	}

	if single {
		line, err := contractLine(&rep.Workloads[0], *trace)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, line)
		return 0 // the result line carries correct/failed
	}
	for _, r := range rep.Workloads {
		if !r.Correct {
			return 1
		}
	}
	return 0
}
