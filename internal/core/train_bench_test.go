package core

import (
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
// the public API: batch construction, forward/backward, Adam steps, and
// the per-epoch full-corpus evaluation. This is the training-side number
// tracked in BENCH_train.json.
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
	// Numeric values only: they are binarized in place, so the corpora
	// differ in what the engine shares and not in what hashing text costs.
	corpus := func(distinct func(slot int) int) []Sample {
		out := distinctSamples(256)
		for i := range out {
			value := func(slot int) string { return strconv.Itoa(1000*(slot+1) + i%distinct(slot)) }
			for k := range out[i].Essential {
				out[i].Essential[k].Value = value(k)
			}
			for k := range out[i].Optional {
				out[i].Optional[k].Value = value(cfg.NumEssential + k)
			}
		}
		return out
	}
	// 47 values in all: 7 per slot, 6 in the last two.
	few := corpus(func(slot int) int { return 7 - slot/5 })
	all := corpus(func(int) int { return 256 })
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
