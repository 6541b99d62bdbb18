package core

import (
	"runtime"
	"strconv"
	"testing"
)

// benchConfig is the fixed benchmark configuration: small enough to run
// quickly, large enough that the per-epoch batch/encode/matmul work
// dominates over setup.
func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 20
	cfg.BatchSize = 16
	return cfg
}

// BenchmarkPretrain measures a full (shortened) pre-training run through
// the public API: corpus encoding, batch gathering, forward/backward,
// Adam steps, and the per-epoch corpus evaluation. The end-to-end
// pre-training number is the benchmark's e2e.pretrain_epoch_p50_ms
// (go run ./bench -workload train-reuse).
func BenchmarkPretrain(b *testing.B) {
	cfg := benchConfig()
	samples := syntheticSamples(4, []int{2, 4, 6, 8, 10, 12})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Pretrain(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPretrainReuse is the set-up of the benchmark's train-reuse
// workload: a 120-epoch Pretrain of the general model on the
// reuse-shaped corpus (720 samples, 144 distinct inputs) at batch 64.
// Besides the run's time it reports the share of split steps whose
// second shard a helper ran (helped/step, as BenchmarkPretrainProcs
// does) and the run's time per step (us/step), so an A/B of the step
// reads straight off one run at either GOMAXPROCS.
func BenchmarkPretrainReuse(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 120
	samples := reuseShapedCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	var steps, helped int
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := m.Pretrain(samples)
		if err != nil {
			b.Fatal(err)
		}
		steps += rep.SplitSteps
		helped += rep.HelperSteps
	}
	if steps == 0 {
		b.Fatal("no step was split")
	}
	b.ReportMetric(float64(helped)/float64(steps), "helped/step")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(steps), "us/step")
}

// BenchmarkTrainStep measures one optimization step over one full-corpus
// batch (a single-epoch, single-batch pre-training run), isolating the
// per-step cost of the compute engine.
func BenchmarkTrainStep(b *testing.B) {
	cfg := benchConfig()
	samples := syntheticSamples(4, []int{2, 4, 6, 8, 10, 12})
	cfg.PretrainEpochs = 1
	cfg.BatchSize = len(samples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Pretrain(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// numericCorpus is 256 samples whose property in slot k takes distinct(k)
// different values. Numeric values only: they are binarized in place, so
// two such corpora differ in what the engine shares and not in what
// hashing text costs.
func numericCorpus(distinct func(slot int) int) []Sample {
	out := distinctSamples(256)
	for i := range out {
		value := func(slot int) string { return strconv.Itoa(1000*(slot+1) + i%distinct(slot)) }
		for k := range out[i].Essential {
			out[i].Essential[k].Value = value(k)
		}
		for k := range out[i].Optional {
			out[i].Optional[k].Value = value(len(out[i].Essential) + k)
		}
	}
	return out
}

// fewValuesCorpus spreads 47 distinct values over its 1792 property
// rows — 7 per slot, 6 in the last two — the shape of a real corpus.
func fewValuesCorpus() []Sample {
	return numericCorpus(func(slot int) int { return 7 - slot/5 })
}

// BenchmarkPretrainDistinct runs the same pre-training — sample count,
// property rows, batch size, epochs — on two corpora that differ only in
// how often property values repeat: "few" spreads 47 distinct values
// over its 1792 property rows, the shape of a real corpus (many
// executions of few contexts); "all" gives every row its own value, so
// the distinct-row engine has nothing to share. CI gates few against all
// within one run (benchgate -speedup), pinning the gain without an
// absolute number from another machine.
func BenchmarkPretrainDistinct(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 5
	few, all := fewValuesCorpus(), numericCorpus(func(int) int { return 256 })
	for _, corpus := range []struct {
		name     string
		samples  []Sample
		distinct int
	}{{"few", few, 47}, {"all", all, 256 * 7}} {
		b.Run(corpus.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := m.Pretrain(corpus.samples)
				if err != nil {
					b.Fatal(err)
				}
				if rep.PropertyRows != 256*7 || rep.DistinctProperties != corpus.distinct {
					b.Fatalf("corpus has %d property rows, %d distinct; want %d, %d",
						rep.PropertyRows, rep.DistinctProperties, 256*7, corpus.distinct)
				}
			}
		})
	}
}

// BenchmarkPretrainProcs runs the same pre-training — 256 samples, batch
// 64, 30 epochs — at GOMAXPROCS=1, where the caller runs both shards of
// every step, and at GOMAXPROCS=2, where a leased helper runs the second
// beside it. Both end with the same parameters; CI gates procs=2 against
// procs=1 within one run (benchgate -speedup), pinning that the second
// core pays. The run is long enough that the serial set-up (scalers, the
// evaluation batch, the replica) is a small share of it: at 5 epochs,
// with the activation kernels, it took the ratio to ~1.2x. (GOMAXPROCS
// is set inside, and the sub-benchmarks are named procs=N, because
// result parsers strip the -N suffix -cpu 1,2 would tell the two apart
// by.)
func BenchmarkPretrainProcs(b *testing.B) {
	const epochs = 30
	cfg := DefaultConfig()
	cfg.PretrainEpochs = epochs
	samples := fewValuesCorpus()
	for _, procs := range []int{1, 2} {
		b.Run("procs="+strconv.Itoa(procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			helped := 0
			for i := 0; i < b.N; i++ {
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := m.Pretrain(samples)
				if err != nil {
					b.Fatal(err)
				}
				if rep.SplitSteps != epochs*4 || rep.HelperSteps > (procs-1)*rep.SplitSteps {
					b.Fatalf("%d split steps, %d of them on a helper; want %d and at most %d",
						rep.SplitSteps, rep.HelperSteps, epochs*4, (procs-1)*rep.SplitSteps)
				}
				helped += rep.HelperSteps
			}
			b.ReportMetric(float64(helped)/float64(epochs*4*b.N), "helped/step")
		})
	}
}
