package obs

import (
	"fmt"
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
	tc := NewTracer(TracerOptions{})
	// Finish slowN+8 traces ranked 1..slowN+8, in a scrambled order,
	// with walls of 2 ms a rank by back-dating their starts: the ring
	// keeps the slowN slowest, rank 9 and up.
	const n = slowN + 8
	for i := 0; i < n; i++ {
		rank := (i*7)%n + 1
		tr := tc.StartRequest(fmt.Sprintf("t%d", rank))
		tr.start = time.Now().Add(-time.Duration(rank) * 2 * time.Millisecond)
		tr.Record(StagePredict, -1, tr.Clock())
		tc.Finish(tr)
	}
	recs := tc.Slowest()
	if len(recs) != slowN {
		t.Fatalf("ring holds %d, want %d", len(recs), slowN)
	}
	// Slowest first.
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Wall < recs[i].Wall {
			t.Fatalf("not sorted slowest-first at %d: %v %v", i, recs[i-1].Wall, recs[i].Wall)
		}
	}
	if id := recs[0].ID(); id != fmt.Sprintf("t%d", n) {
		t.Fatalf("slowest = %q, want t%d", id, n)
	}
	if last := recs[slowN-1]; last.ID() != "t9" || last.Wall < 18*time.Millisecond {
		t.Fatalf("%dth slowest = %q (%v), want t9 (~18ms)", slowN, last.ID(), last.Wall)
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
