// Command benchgate is the CI benchmark-regression smoke gate: it
// parses `go test -bench` output files, looks up each required
// benchmark's recorded baseline in the repo's BENCH_*.json files, and
// fails when a measured time exceeds baseline * max-ratio. It gates
// against gross regressions (the default ratio is 2x) rather than
// noise: CI runners are slower and noisier than the recording machine,
// but a hot path that doubled is a bug regardless of hardware.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkPretrain$' -benchtime 100x ./internal/core/ > train.txt
//	go test -run '^$' -bench 'BenchmarkPredictBatchWarm$' -benchtime 100x ./internal/serve/ > serve.txt
//	go run ./internal/ci/benchgate -baseline BENCH_train.json -baseline BENCH_serve.json \
//	    -require BenchmarkPretrain -require BenchmarkPredictBatchWarm train.txt serve.txt
//
// Relative assertions with -speedup compare two benchmarks of the SAME
// measured output instead of a recorded baseline, which makes them
// hardware-independent — the shard scaling gate asserts that the
// 2-shard and 4-shard router runs beat the 1-shard run by a floor
// ratio, whatever the runner's absolute speed:
//
//	go test -run '^$' -bench BenchmarkShardPredict ./internal/shard/ > shard.txt
//	go run ./internal/ci/benchgate \
//	    -speedup 'BenchmarkShardPredict/shards=1:BenchmarkShardPredict/shards=2:1.7' \
//	    -speedup 'BenchmarkShardPredict/shards=1:BenchmarkShardPredict/shards=4:3.0' shard.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchRecord is the shared shape of one benchmark entry in the
// BENCH_*.json files; only the "after" column (the current recorded
// state of the code) is used as the baseline.
type benchRecord struct {
	Name  string `json:"name"`
	After struct {
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"after"`
}

// benchFile covers BENCH_train.json ("train" array),
// BENCH_serve.json ("serve" and "store" arrays), BENCH_http.json
// ("http" array: the HTTP serving tier under load control), and
// BENCH_shard.json ("shard" array: the sharded router's scaling curve).
type benchFile struct {
	Train []benchRecord `json:"train"`
	Serve []benchRecord `json:"serve"`
	Store []benchRecord `json:"store"`
	Http  []benchRecord `json:"http"`
	Shard []benchRecord `json:"shard"`
}

// baseline is one recorded bound plus the file it came from, so a gate
// failure can point straight at the baseline to re-record.
type baseline struct {
	ns   float64
	file string
}

// loadBaselines maps benchmark name -> recorded baseline across files.
func loadBaselines(paths []string) (map[string]baseline, error) {
	out := map[string]baseline{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("reading baseline %s: %w", path, err)
		}
		var f benchFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
		}
		for _, rec := range append(append(append(append(f.Train, f.Serve...), f.Store...), f.Http...), f.Shard...) {
			if rec.Name != "" && rec.After.NsPerOp > 0 {
				out[rec.Name] = baseline{ns: rec.After.NsPerOp, file: path}
			}
		}
	}
	return out, nil
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkPretrain-8    100    7509136 ns/op    648433 B/op    682 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped from the reported name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBenchOutput maps benchmark name -> measured ns/op from go test
// -bench output. When a benchmark appears multiple times the fastest
// run wins, which keeps the gate robust against one-off scheduling
// hiccups on shared CI runners.
func parseBenchOutput(r *bufio.Scanner) (map[string]float64, error) {
	out := map[string]float64{}
	for r.Scan() {
		m := benchLine.FindStringSubmatch(r.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", r.Text(), err)
		}
		if cur, ok := out[m[1]]; !ok || ns < cur {
			out[m[1]] = ns
		}
	}
	return out, r.Err()
}

// gate compares measured times against baselines and returns one
// failure line per violated bound, plus a log line per checked bench.
// Each line names the benchmark, the measured-vs-allowed times, the
// measured/baseline ratio, and the baseline file that set the bound —
// everything needed to decide between fixing the regression and
// re-recording the baseline.
func gate(measured map[string]float64, baselines map[string]baseline, required []string, maxRatio float64) (checked []string, failures []string) {
	for _, name := range required {
		ns, ok := measured[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: required benchmark missing from measured output", name))
			continue
		}
		base, ok := baselines[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: no recorded baseline in any given -baseline file", name))
			continue
		}
		ratio := ns / base.ns
		line := fmt.Sprintf("%s: measured %.0f ns/op vs allowed %.0f ns/op — %.2fx of baseline %.0f ns/op (limit %.1fx, recorded in %s)",
			name, ns, base.ns*maxRatio, ratio, base.ns, maxRatio, base.file)
		checked = append(checked, line)
		if ratio > maxRatio {
			failures = append(failures, line)
		}
	}
	return checked, failures
}

// speedupSpec is one -speedup assertion: the measured run of Target
// must be at least MinRatio times faster (lower ns/op) than the
// measured run of Base. Both come from the same CI output, so the
// assertion is hardware-independent — exactly what a scaling claim
// ("2 shards are >= 1.7x one shard") needs on runners of unknown speed.
type speedupSpec struct {
	Base, Target string
	MinRatio     float64
}

// parseSpeedup parses "BenchBase:BenchTarget:minRatio".
func parseSpeedup(s string) (speedupSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return speedupSpec{}, fmt.Errorf("speedup %q must be base:target:minRatio", s)
	}
	ratio, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || ratio <= 0 {
		return speedupSpec{}, fmt.Errorf("speedup %q: bad ratio %q", s, parts[2])
	}
	return speedupSpec{Base: parts[0], Target: parts[1], MinRatio: ratio}, nil
}

// gateSpeedups checks the relative-throughput assertions against one
// measured output set.
func gateSpeedups(measured map[string]float64, specs []speedupSpec) (checked []string, failures []string) {
	for _, sp := range specs {
		base, ok := measured[sp.Base]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: speedup base missing from measured output", sp.Base))
			continue
		}
		target, ok := measured[sp.Target]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: speedup target missing from measured output", sp.Target))
			continue
		}
		ratio := base / target
		line := fmt.Sprintf("%s vs %s: %.2fx speedup (floor %.2fx)", sp.Target, sp.Base, ratio, sp.MinRatio)
		checked = append(checked, line)
		if ratio < sp.MinRatio {
			failures = append(failures, line)
		}
	}
	return checked, failures
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var baselinePaths, required, speedups multiFlag
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when measured ns/op exceeds baseline by this factor")
	flag.Var(&baselinePaths, "baseline", "BENCH_*.json baseline file (repeatable)")
	flag.Var(&required, "require", "benchmark name that must be present and within bounds (repeatable)")
	flag.Var(&speedups, "speedup", "base:target:minRatio — measured target must be minRatio times faster than measured base (repeatable)")
	flag.Parse()
	if (len(required) > 0 && len(baselinePaths) == 0) ||
		(len(required) == 0 && len(speedups) == 0) || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-baseline BENCH.json -require BenchmarkName] [-speedup base:target:minRatio] [-max-ratio 2.0] benchout.txt...")
		os.Exit(2)
	}
	var specs []speedupSpec
	for _, s := range speedups {
		sp, err := parseSpeedup(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		specs = append(specs, sp)
	}

	baselines, err := loadBaselines(baselinePaths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	measured := map[string]float64{}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		m, err := parseBenchOutput(bufio.NewScanner(f))
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: parsing %s: %v\n", path, err)
			os.Exit(2)
		}
		for name, ns := range m {
			if cur, ok := measured[name]; !ok || ns < cur {
				measured[name] = ns
			}
		}
	}

	checked, failures := gate(measured, baselines, required, *maxRatio)
	spChecked, spFailures := gateSpeedups(measured, specs)
	checked = append(checked, spChecked...)
	failures = append(failures, spFailures...)
	for _, line := range checked {
		fmt.Println("ok:", line)
	}
	if len(failures) > 0 {
		for _, line := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", line)
		}
		os.Exit(1)
	}
}
