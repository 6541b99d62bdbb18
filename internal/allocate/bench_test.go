package allocate

import (
	"testing"
)

// BenchmarkAllocate measures the warm allocation hot path: a
// 64-candidate sweep (one batched forward pass, isotonic smoothing,
// cost/SLO selection) against a resident model. CI's bench-smoke step
// runs it once; the benchmark under bench/ times the same sweep as its
// allocate.sweep64_us rung.
func BenchmarkAllocate(b *testing.B) {
	m := trainedModel(b, 1)
	ess, opt := testProps()
	e := NewEngine()
	req := Request{
		Essential:       ess,
		Optional:        opt,
		MinScaleOut:     1,
		MaxScaleOut:     64,
		DeadlineSec:     200,
		CostPerNodeHour: 0.5,
	}
	var res Result
	if err := e.AllocateInto(&res, m, req); err != nil {
		b.Fatalf("AllocateInto: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.AllocateInto(&res, m, req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "candidates/s")
}
