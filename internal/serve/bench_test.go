package serve

import (
	"context"
	"strconv"
	"testing"
	"time"
)

// benchRequests builds n distinct requests spread over the C3O scale-out
// grid and a range of dataset sizes.
func benchRequests(n int) []Request {
	keys := []ModelKey{
		{Job: "sort", Env: "c3o"}, {Job: "grep", Env: "c3o"},
		{Job: "sgd", Env: "bell"}, {Job: "kmeans", Env: "c3o"},
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Key:   keys[i%len(keys)],
			Query: testQuery(2+2*(i%6), 4000+137*i),
		}
	}
	return reqs
}

// TestWarmPredictZeroAlloc pins the warm hit path of the serve cache:
// once a (model, query) result is memoized, answering it again builds
// its fingerprint in a stack buffer and resolves it with an
// allocation-free table probe — zero allocations per hit.
func TestWarmPredictZeroAlloc(t *testing.T) {
	cl := &countingLoader{t: t}
	svc := NewService(cl.load, Options{})
	key := ModelKey{Job: "sort", Env: "c3o"}
	q := testQuery(4, 4096)
	if r := svc.Predict(context.Background(), key, q); r.Err != nil {
		t.Fatalf("cold Predict: %v", r.Err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r := svc.Predict(context.Background(), key, q)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !r.Cached {
			t.Fatal("expected a cache hit")
		}
	}); allocs != 0 {
		t.Fatalf("warm Predict allocs/op = %v, want 0", allocs)
	}
}

// TestWarmBatchSpeedup is the acceptance check of the serving layer: a
// warm-cache PredictBatch over a 1k-request batch must be at least 5x
// faster than serving the same requests cold, one Predict at a time.
func TestWarmBatchSpeedup(t *testing.T) {
	cl := &countingLoader{t: t}
	reqs := benchRequests(1000)

	// Cold path: fresh service, per-request prediction, empty caches.
	cold := NewService(cl.load, Options{ResultCap: 1}) // effectively uncached
	startCold := time.Now()
	for _, req := range reqs {
		if r := cold.Predict(context.Background(), req.Key, req.Query); r.Err != nil {
			t.Fatalf("cold Predict: %v", r.Err)
		}
	}
	coldDur := time.Since(startCold)

	// Warm path: batch served twice; the second pass hits the result
	// cache for every request.
	warm := NewService(cl.load, Options{ResultCap: 2048})
	for i, r := range warm.PredictBatch(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatalf("warm-up batch response %d: %v", i, r.Err)
		}
	}
	startWarm := time.Now()
	out := warm.PredictBatch(context.Background(), reqs)
	warmDur := time.Since(startWarm)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("warm batch response %d: %v", i, r.Err)
		}
		if !r.Cached {
			t.Fatalf("warm batch response %d missed the result cache", i)
		}
	}

	if coldDur < 5*warmDur {
		t.Fatalf("warm batch %v is only %.1fx faster than cold per-request %v, want >= 5x",
			warmDur, float64(coldDur)/float64(warmDur), coldDur)
	}
	t.Logf("cold per-request: %v, warm batch: %v (%.0fx)", coldDur, warmDur, float64(coldDur)/float64(warmDur))
}

// BenchmarkPredictBatchCold measures the uncached batch path: every
// iteration carries fresh fingerprints, so each request takes a real
// forward pass (models stay resident after the first iteration).
func BenchmarkPredictBatchCold(b *testing.B) {
	cl := &countingLoader{t: b}
	svc := NewService(cl.load, Options{})
	reqs := benchRequests(1000)
	svc.PredictBatch(context.Background(), reqs[:1]) // load models outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := strconv.Itoa(i)
		for j := range reqs {
			reqs[j].Query.Essential[2].Value = "--iterations " + tag
		}
		svc.PredictBatch(context.Background(), reqs)
	}
	b.ReportMetric(float64(b.N*len(reqs))/b.Elapsed().Seconds(), "pred/s")
}

// BenchmarkPredictBatchWarm measures the memoized batch path: the same
// requests every iteration, all served from the result cache.
func BenchmarkPredictBatchWarm(b *testing.B) {
	cl := &countingLoader{t: b}
	svc := NewService(cl.load, Options{ResultCap: 2048})
	reqs := benchRequests(1000)
	svc.PredictBatch(context.Background(), reqs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.PredictBatch(context.Background(), reqs)
	}
	b.ReportMetric(float64(b.N*len(reqs))/b.Elapsed().Seconds(), "pred/s")
}

// BenchmarkPredictSingleCold measures the per-request path the batch API
// replaces: one Predict call per request, no memoization.
func BenchmarkPredictSingleCold(b *testing.B) {
	cl := &countingLoader{t: b}
	svc := NewService(cl.load, Options{ResultCap: 1})
	reqs := benchRequests(1000)
	svc.PredictBatch(context.Background(), reqs[:1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			svc.Predict(context.Background(), req.Key, req.Query)
		}
	}
	b.ReportMetric(float64(b.N*len(reqs))/b.Elapsed().Seconds(), "pred/s")
}
