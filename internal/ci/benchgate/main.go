// Command benchgate checks same-run speedups in `go test -bench`
// output: each -speedup names a base and a target benchmark of the same
// measured files and a floor ratio, and benchgate fails when the base's
// ns/op over the target's falls below it. Both sides come from one run
// on one machine, so the check holds on runners of any speed. When a
// benchmark appears more than once (-count, or several files) its
// fastest pass is kept, so a one-off scheduling hiccup on a shared
// runner cannot fail a ratio.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkShardPredict ./internal/shard/ > shard.txt
//	go run ./internal/ci/benchgate \
//	    -speedup 'BenchmarkShardPredict/shards=1:BenchmarkShardPredict/shards=2:1.7' \
//	    -speedup 'BenchmarkShardPredict/shards=1:BenchmarkShardPredict/shards=4:3.0' shard.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkPretrain-8    100    7509136 ns/op    648433 B/op    682 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped from the reported name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBenchOutput maps benchmark name -> measured ns/op from go test
// -bench output. When a benchmark appears multiple times the fastest
// run wins.
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

// speedupSpec is one -speedup assertion: the measured run of Target
// must be at least MinRatio times faster (lower ns/op) than the
// measured run of Base.
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
// measured output set, returning one line per assertion that holds and
// one per assertion that does not.
func gateSpeedups(measured map[string]float64, specs []speedupSpec) (passed []string, failures []string) {
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
		if ratio < sp.MinRatio {
			failures = append(failures, line)
		} else {
			passed = append(passed, line)
		}
	}
	return passed, failures
}

// measure reads every output file into one name -> ns/op map, keeping
// each benchmark's fastest pass across all of them.
func measure(paths []string) (map[string]float64, error) {
	measured := map[string]float64{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		m, err := parseBenchOutput(bufio.NewScanner(f))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		for name, ns := range m {
			if cur, ok := measured[name]; !ok || ns < cur {
				measured[name] = ns
			}
		}
	}
	return measured, nil
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// usage is printed, with exit status 2, when no -speedup or no output
// file is given.
const usage = "usage: benchgate -speedup base:target:minRatio [-speedup ...] benchout.txt..."

func main() {
	var speedups multiFlag
	flag.Var(&speedups, "speedup", "base:target:minRatio — measured target must be minRatio times faster than measured base (repeatable)")
	flag.Parse()
	os.Exit(run(speedups, flag.Args()))
}

// run is main without the flag parsing and the exit, so tests can drive
// it: it returns 0 when every speedup holds, 1 when one fails, and 2 on
// a usage or input error.
func run(speedups, paths []string) int {
	if len(speedups) == 0 || len(paths) == 0 {
		fmt.Fprintln(os.Stderr, usage)
		return 2
	}
	var specs []speedupSpec
	for _, s := range speedups {
		sp, err := parseSpeedup(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			return 2
		}
		specs = append(specs, sp)
	}
	measured, err := measure(paths)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return 2
	}

	passed, failures := gateSpeedups(measured, specs)
	for _, line := range passed {
		fmt.Println("ok:", line)
	}
	if len(failures) > 0 {
		for _, line := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", line)
		}
		return 1
	}
	return 0
}
