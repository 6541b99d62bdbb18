package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if !tr.Clock().IsZero() {
		t.Fatal("nil trace Clock must return zero time")
	}
	tr.Record(StageDecode, -1, time.Time{})
	if tr.ID() != "" || tr.Spans() != nil {
		t.Fatal("nil trace must report empty ID and no spans")
	}
	var tc *Tracer
	if got := tc.StartRequest("abc"); got != nil {
		t.Fatal("nil tracer must not trace")
	}
	tc.Finish(nil)
}

func TestClientIDAlwaysTraced(t *testing.T) {
	tc := NewTracer(TracerOptions{SampleEvery: 1 << 30})
	for i := 0; i < 10; i++ {
		tr := tc.StartRequest("client-id-7")
		if tr == nil {
			t.Fatal("client-supplied trace ID must always be traced")
		}
		if tr.ID() != "client-id-7" {
			t.Fatalf("ID = %q", tr.ID())
		}
		tc.Finish(tr)
	}
	// Oversized client IDs truncate instead of overflowing.
	tr := tc.StartRequest(strings.Repeat("x", 100))
	if len(tr.ID()) != maxTraceID {
		t.Fatalf("oversized ID len = %d, want %d", len(tr.ID()), maxTraceID)
	}
	tc.Finish(tr)
}

func TestSampling(t *testing.T) {
	tc := NewTracer(TracerOptions{SampleEvery: 4})
	traced := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if tr := tc.StartRequest(""); tr != nil {
			traced++
			if len(tr.ID()) != traceIDLen {
				t.Fatalf("generated ID %q, want %d hex chars", tr.ID(), traceIDLen)
			}
			tc.Finish(tr)
		}
	}
	// Sampling is probabilistic (p = 1/4 per request): the count is
	// binomial with mean 1000 and stddev ~27, so a [850, 1150] band is
	// ~5.5 sigma on each side — it flakes never, but catches an
	// off-by-a-factor sampling bug immediately.
	if traced < 850 || traced > 1150 {
		t.Fatalf("traced %d of %d at p=1/4, want within [850, 1150]", traced, n)
	}
	sampled, finished := tc.Stats()
	if sampled != int64(traced) || finished != int64(traced) {
		t.Fatalf("Stats = %d, %d, want %d each", sampled, finished, traced)
	}
}

func TestSpanRecording(t *testing.T) {
	tc := NewTracer(TracerOptions{})
	tr := tc.StartRequest("req-1")
	t0 := tr.Clock()
	if t0.IsZero() {
		t.Fatal("live trace Clock must return a real time")
	}
	time.Sleep(2 * time.Millisecond)
	tr.Record(StageDecode, -1, t0)
	t1 := tr.Clock()
	time.Sleep(time.Millisecond)
	tr.Record(StagePredict, 3, t1)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != StageDecode || spans[0].Shard != -1 || spans[0].Dur < time.Millisecond {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Name != StagePredict || spans[1].Shard != 3 {
		t.Fatalf("span 1 = %+v", spans[1])
	}
	if spans[1].Start <= spans[0].Start {
		t.Fatal("span offsets must advance")
	}
	tc.Finish(tr)
}

func TestConcurrentRecordFanOut(t *testing.T) {
	tc := NewTracer(TracerOptions{})
	tr := tc.StartRequest("fan-out")
	var wg sync.WaitGroup
	for shard := 0; shard < 8; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			tr.Record(StageShardRoute, shard, tr.Clock())
		}(shard)
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("got %d spans from 8 concurrent writers, want 8", len(spans))
	}
	seen := map[int]bool{}
	for _, s := range spans {
		if s.Name != StageShardRoute {
			t.Fatalf("span = %+v", s)
		}
		seen[s.Shard] = true
	}
	if len(seen) != 8 {
		t.Fatalf("concurrent writers clobbered slots: %v", seen)
	}
	tc.Finish(tr)
}

func TestSpanOverflowDropsNotGrows(t *testing.T) {
	tc := NewTracer(TracerOptions{})
	tr := tc.StartRequest("overflow")
	for i := 0; i < maxSpans+10; i++ {
		tr.Record(StagePredict, i, tr.Clock())
	}
	if n := len(tr.Spans()); n != maxSpans {
		t.Fatalf("spans = %d, want capped at %d", n, maxSpans)
	}
	tc.Finish(tr)
}

func TestSlowRingKeepsSlowest(t *testing.T) {
	tc := NewTracer(TracerOptions{SlowN: 3})
	// Finish traces with controlled walls by back-dating start.
	for i, ms := range []int{5, 50, 1, 20, 40, 2} {
		tr := tc.StartRequest("t" + string(rune('0'+i)))
		tr.start = time.Now().Add(-time.Duration(ms) * time.Millisecond)
		tr.Record(StagePredict, -1, tr.Clock())
		tc.Finish(tr)
	}
	recs := tc.Slowest()
	if len(recs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recs))
	}
	// Slowest first: ~50ms, ~40ms, ~20ms.
	if recs[0].Wall < recs[1].Wall || recs[1].Wall < recs[2].Wall {
		t.Fatalf("not sorted slowest-first: %v %v %v", recs[0].Wall, recs[1].Wall, recs[2].Wall)
	}
	if recs[0].ID() != "t1" {
		t.Fatalf("slowest = %q, want t1 (50ms)", recs[0].ID())
	}
	if recs[2].Wall < 15*time.Millisecond {
		t.Fatalf("3rd slowest %v, want the ~20ms trace", recs[2].Wall)
	}
	if recs[0].NSpans != 1 || recs[0].Spans[0].Name != StagePredict {
		t.Fatalf("record lost spans: %+v", recs[0])
	}
}

func TestStartFinishZeroAlloc(t *testing.T) {
	tc := NewTracer(TracerOptions{SampleEvery: 1})
	// Warm the free list.
	tc.Finish(tc.StartRequest(""))
	allocs := testing.AllocsPerRun(200, func() {
		tr := tc.StartRequest("")
		tr.Record(StagePredict, -1, tr.Clock())
		tc.Finish(tr)
	})
	if allocs != 0 {
		t.Fatalf("sampled trace lifecycle allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkTracerUnsampled measures the untraced fast path: the single
// sampling tick every request pays when no trace ID is supplied.
func BenchmarkTracerUnsampled(b *testing.B) {
	t := NewTracer(TracerOptions{SampleEvery: 1 << 30})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := t.StartRequest("")
		t.Finish(tr)
	}
}

// BenchmarkTracerSampled measures the full traced round trip: reused
// trace checkout, ID generation, and the slow-ring offer on finish.
func BenchmarkTracerSampled(b *testing.B) {
	t := NewTracer(TracerOptions{SampleEvery: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := t.StartRequest("")
		t.Finish(tr)
	}
}
