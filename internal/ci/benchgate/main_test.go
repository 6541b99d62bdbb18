package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Real `go test -bench` output of the four benchmarks CI gates, from a
// 2-vCPU Xeon: sub-benchmark names holding '=', the -2 GOMAXPROCS
// suffix, a custom metric printed after ns/op, B/op and allocs/op
// columns, and -count 3 passes.
const (
	shardOutput = `goos: linux
goarch: amd64
pkg: repro/internal/shard
cpu: Intel(R) Xeon(R) Processor
BenchmarkShardPredict/shards=1-2         	      20	  10758254 ns/op
BenchmarkShardPredict/shards=2-2         	      20	   5520645 ns/op
BenchmarkShardPredict/shards=4-2         	      20	   2878736 ns/op
PASS
ok  	repro/internal/shard	0.468s
`
	distinctOutput = `pkg: repro/internal/core
BenchmarkPretrainDistinct/few-2         	      20	   4308129 ns/op	  255648 B/op	     613 allocs/op
BenchmarkPretrainDistinct/few-2         	      20	   5469585 ns/op	  255656 B/op	     613 allocs/op
BenchmarkPretrainDistinct/few-2         	      20	   4537616 ns/op	  255640 B/op	     613 allocs/op
BenchmarkPretrainDistinct/all-2         	      20	   7167971 ns/op	 2350012 B/op	     646 allocs/op
BenchmarkPretrainDistinct/all-2         	      20	  11284306 ns/op	 2350251 B/op	     646 allocs/op
BenchmarkPretrainDistinct/all-2         	      20	  12445966 ns/op	 2349981 B/op	     646 allocs/op
PASS
`
	// Two processes' -count 3 passes, as CI's procs step writes them
	// into one file with tee -a; split over two files below.
	procsOutput1 = `pkg: repro/internal/core
BenchmarkPretrainProcs/procs=1-2         	      20	  27155372 ns/op	         0 helped/step	  255643 B/op	     613 allocs/op
BenchmarkPretrainProcs/procs=1-2         	      20	  26239114 ns/op	         0 helped/step	  255640 B/op	     613 allocs/op
BenchmarkPretrainProcs/procs=1-2         	      20	  22936657 ns/op	         0 helped/step	  255643 B/op	     613 allocs/op
BenchmarkPretrainProcs/procs=2-2         	      20	  26644202 ns/op	         0.8204 helped/step	  255655 B/op	     613 allocs/op
BenchmarkPretrainProcs/procs=2-2         	      20	  33603082 ns/op	         0.6008 helped/step	  255640 B/op	     613 allocs/op
BenchmarkPretrainProcs/procs=2-2         	      20	  25494965 ns/op	         0.7404 helped/step	  255645 B/op	     613 allocs/op
PASS
`
	procsOutput2 = `pkg: repro/internal/core
BenchmarkPretrainProcs/procs=1-2         	      20	  25922415 ns/op	         0 helped/step	  255640 B/op	     613 allocs/op
BenchmarkPretrainProcs/procs=1-2         	      20	  22336417 ns/op	         0 helped/step	  255640 B/op	     613 allocs/op
BenchmarkPretrainProcs/procs=1-2         	      20	  30394651 ns/op	         0 helped/step	  255640 B/op	     613 allocs/op
BenchmarkPretrainProcs/procs=2-2         	      20	  33744747 ns/op	         0.6583 helped/step	  255669 B/op	     613 allocs/op
BenchmarkPretrainProcs/procs=2-2         	      20	  34872076 ns/op	         0.5217 helped/step	  255640 B/op	     613 allocs/op
BenchmarkPretrainProcs/procs=2-2         	      20	  27127614 ns/op	         0.7408 helped/step	  255640 B/op	     613 allocs/op
PASS
`
	obsOutput = `pkg: repro/internal/serve
BenchmarkPredictObsOverhead/uninstrumented-2         	  300000	       559.7 ns/op
BenchmarkPredictObsOverhead/uninstrumented-2         	  300000	       642.7 ns/op
BenchmarkPredictObsOverhead/uninstrumented-2         	  300000	       516.0 ns/op
BenchmarkPredictObsOverhead/instrumented-2           	  300000	       617.5 ns/op
BenchmarkPredictObsOverhead/instrumented-2           	  300000	       682.0 ns/op
BenchmarkPredictObsOverhead/instrumented-2           	  300000	       536.5 ns/op
PASS
`
)

func parse(t *testing.T, out string) map[string]float64 {
	t.Helper()
	m, err := parseBenchOutput(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func TestParseBenchOutput(t *testing.T) {
	for _, tc := range []struct {
		out  string
		want map[string]float64 // fastest pass per name, suffix stripped
	}{
		{shardOutput, map[string]float64{
			"BenchmarkShardPredict/shards=1": 10758254,
			"BenchmarkShardPredict/shards=2": 5520645,
			"BenchmarkShardPredict/shards=4": 2878736,
		}},
		{distinctOutput, map[string]float64{
			"BenchmarkPretrainDistinct/few": 4308129,
			"BenchmarkPretrainDistinct/all": 7167971,
		}},
		{procsOutput1, map[string]float64{
			"BenchmarkPretrainProcs/procs=1": 22936657,
			"BenchmarkPretrainProcs/procs=2": 25494965,
		}},
		{obsOutput, map[string]float64{
			"BenchmarkPredictObsOverhead/uninstrumented": 516.0,
			"BenchmarkPredictObsOverhead/instrumented":   536.5,
		}},
	} {
		got := parse(t, tc.out)
		if len(got) != len(tc.want) {
			t.Fatalf("parsed %v, want %v", got, tc.want)
		}
		for name, ns := range tc.want {
			if got[name] != ns {
				t.Fatalf("%s = %v, want %v (all: %v)", name, got[name], ns, got)
			}
		}
	}
}

func TestParseSpeedup(t *testing.T) {
	sp, err := parseSpeedup("BenchmarkShardPredict/shards=1:BenchmarkShardPredict/shards=2:1.7")
	if err != nil {
		t.Fatalf("parseSpeedup: %v", err)
	}
	if sp.Base != "BenchmarkShardPredict/shards=1" || sp.Target != "BenchmarkShardPredict/shards=2" || sp.MinRatio != 1.7 {
		t.Fatalf("parseSpeedup = %+v, want base/target/1.7", sp)
	}

	for _, bad := range []string{
		"",               // empty
		"a:b",            // missing ratio
		"a:b:c:d",        // too many parts
		"a:b:notanumber", // unparseable ratio
		"a:b:0",          // ratio must be positive
		"a:b:-1.5",       // negative ratio
	} {
		if _, err := parseSpeedup(bad); err == nil {
			t.Fatalf("parseSpeedup(%q) accepted, want error", bad)
		}
	}
}

func TestGateSpeedups(t *testing.T) {
	shard := parse(t, shardOutput)
	one, two, four := "BenchmarkShardPredict/shards=1", "BenchmarkShardPredict/shards=2", "BenchmarkShardPredict/shards=4"

	// CI's floors: 1.95x against 1.7x passes, 3.74x against 3.0x passes;
	// the same run against a 4.0x floor fails and says why.
	passed, failures := gateSpeedups(shard, []speedupSpec{
		{Base: one, Target: two, MinRatio: 1.7},
		{Base: one, Target: four, MinRatio: 3.0},
		{Base: one, Target: four, MinRatio: 4.0},
	})
	if len(passed) != 2 {
		t.Fatalf("passed %d speedups, want 2: %v", len(passed), passed)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "3.74x speedup (floor 4.00x)") {
		t.Fatalf("failures = %v, want exactly the 4.0x floor, with ratio and floor spelled out", failures)
	}

	// A ratio exactly at its floor passes; the next float above fails.
	at := shard[one] / shard[two]
	if _, failures := gateSpeedups(shard, []speedupSpec{{Base: one, Target: two, MinRatio: at}}); len(failures) != 0 {
		t.Fatalf("ratio at its floor failed: %v", failures)
	}
	if _, failures := gateSpeedups(shard, []speedupSpec{{Base: one, Target: two, MinRatio: math.Nextafter(at, 2)}}); len(failures) != 1 {
		t.Fatalf("ratio just under its floor passed")
	}

	// A floor below 1 lets the target be slower: the obs overhead gate.
	obs := parse(t, obsOutput)
	if _, failures := gateSpeedups(obs, []speedupSpec{{
		Base: "BenchmarkPredictObsOverhead/uninstrumented", Target: "BenchmarkPredictObsOverhead/instrumented", MinRatio: 0.95,
	}}); len(failures) != 0 {
		t.Fatalf("0.96x against a 0.95x floor failed: %v", failures)
	}

	// A missing base or target fails loudly instead of passing vacuously.
	_, failures = gateSpeedups(shard, []speedupSpec{
		{Base: "BenchmarkMissing", Target: two, MinRatio: 1.5},
		{Base: one, Target: "BenchmarkShardPredict/shards=8", MinRatio: 1.5},
	})
	if len(failures) != 2 ||
		!strings.Contains(failures[0], "BenchmarkMissing: speedup base missing") ||
		!strings.Contains(failures[1], "shards=8: speedup target missing") {
		t.Fatalf("failures = %v, want one per missing name", failures)
	}
}

func writeFiles(t *testing.T, outs ...string) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i, out := range outs {
		p := filepath.Join(dir, "bench"+string(rune('a'+i))+".txt")
		if err := os.WriteFile(p, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// The procs gate reads six passes from two processes. The fastest pass
// of each name is kept across files: procs=1's 22336417 ns/op is in the
// second file, procs=2's 25494965 in the first. On the 2-vCPU Xeon
// these passes came from, that reads 0.88x and fails the 1.25x floor.
func TestRunKeepsFastestPassAcrossFiles(t *testing.T) {
	m, err := measure(writeFiles(t, procsOutput1, procsOutput2))
	if err != nil {
		t.Fatal(err)
	}
	if m["BenchmarkPretrainProcs/procs=1"] != 22336417 || m["BenchmarkPretrainProcs/procs=2"] != 25494965 {
		t.Fatalf("measured %v, want procs=1 22336417 and procs=2 25494965", m)
	}
	procs := []string{"BenchmarkPretrainProcs/procs=1:BenchmarkPretrainProcs/procs=2:1.25"}
	if got := run(procs, writeFiles(t, procsOutput1, procsOutput2)); got != 1 {
		t.Fatalf("run of the procs gate = %d, want 1 (0.88x against 1.25x)", got)
	}
	// The four CI invocations on their outputs; a name absent from the
	// files given fails the run.
	for _, tc := range []struct {
		speedups []string
		out      string
	}{
		{[]string{"BenchmarkShardPredict/shards=1:BenchmarkShardPredict/shards=2:1.7",
			"BenchmarkShardPredict/shards=1:BenchmarkShardPredict/shards=4:3.0"}, shardOutput},
		{[]string{"BenchmarkPretrainDistinct/all:BenchmarkPretrainDistinct/few:1.2"}, distinctOutput},
		{[]string{"BenchmarkPredictObsOverhead/uninstrumented:BenchmarkPredictObsOverhead/instrumented:0.95"}, obsOutput},
	} {
		if got := run(tc.speedups, writeFiles(t, tc.out)); got != 0 {
			t.Fatalf("run(%v) = %d, want 0", tc.speedups, got)
		}
		if got := run(tc.speedups, writeFiles(t, procsOutput1)); got != 1 {
			t.Fatalf("run(%v) on another benchmark's output = %d, want 1", tc.speedups, got)
		}
	}
}

// Usage and input errors exit 2: no -speedup, no output file, a bad
// -speedup, a file that does not exist.
func TestRunUsageErrors(t *testing.T) {
	files := writeFiles(t, shardOutput)
	spec := []string{"BenchmarkShardPredict/shards=1:BenchmarkShardPredict/shards=2:1.7"}
	for name, got := range map[string]int{
		"no -speedup":    run(nil, files),
		"no output file": run(spec, nil),
		"bad -speedup":   run([]string{"BenchmarkShardPredict/shards=1:1.7"}, files),
		"missing file":   run(spec, []string{filepath.Join(t.TempDir(), "absent.txt")}),
	} {
		if got != 2 {
			t.Fatalf("%s: run = %d, want 2", name, got)
		}
	}
}
