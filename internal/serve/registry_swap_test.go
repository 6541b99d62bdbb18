package serve

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
)

// quantClose compares a served (float32-quantized) prediction against a
// float64 reference within the documented quantization bound.
func quantClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-3*(1+math.Abs(want))
}

// loadTrained decodes a fresh trained model for a seed.
func loadTrained(t testing.TB, seed int64) *core.Model {
	t.Helper()
	m, err := core.Load(bytes.NewReader(trainedModelBytes(t, seed)))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return m
}

func TestRegistrySwapInstallsNewVersion(t *testing.T) {
	cl := &countingLoader{t: t}
	reg := NewRegistry(cl.load, 4)
	key := ModelKey{Job: "sort", Env: "c3o"}

	ref, err := reg.GetRef(context.Background(), key)
	if err != nil {
		t.Fatalf("GetRef: %v", err)
	}
	if ref.Version != 1 {
		t.Fatalf("initial version = %d, want 1", ref.Version)
	}
	q := testQuery(4, 10000)
	oldPred, err := ref.Model.Predict(q)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}

	replacement := loadTrained(t, 99)
	wantNew, err := replacement.Predict(q.ScaleOut, q.Essential, q.Optional)
	if err != nil {
		t.Fatalf("replacement Predict: %v", err)
	}
	if wantNew == oldPred {
		t.Fatal("test models predict identically; swap would be unobservable")
	}
	version, ok := reg.Swap(key, ref.Gen, replacement)
	if !ok || version != 2 {
		t.Fatalf("Swap = (%d, %v), want (2, true)", version, ok)
	}
	if v, ok := reg.Version(key); !ok || v != 2 {
		t.Fatalf("Version = (%d, %v), want (2, true)", v, ok)
	}

	// New Gets see the new version; the old reference keeps serving the
	// old weights (in-flight predictions finish undisturbed).
	sm, err := reg.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get after swap: %v", err)
	}
	got, err := sm.Predict(q)
	if err != nil {
		t.Fatalf("Predict after swap: %v", err)
	}
	if !quantClose(got, wantNew) {
		t.Fatalf("swapped model predicts %v, want %v", got, wantNew)
	}
	still, err := ref.Model.Predict(q)
	if err != nil {
		t.Fatalf("old ref Predict: %v", err)
	}
	if still != oldPred {
		t.Fatalf("old reference changed prediction after swap: %v != %v", still, oldPred)
	}
	// No reload happened: the swap installed an in-memory model.
	if n := cl.count(key).Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	if st := reg.Stats(); st.Swaps != 1 || st.SwapsSkipped != 0 {
		t.Fatalf("stats swaps=%d skipped=%d, want 1/0", st.Swaps, st.SwapsSkipped)
	}
}

// TestRegistrySwapRefusesEvictedGeneration is the eviction-race
// coverage: a model version evicted while a fine-tune derives from it
// must not be resurrected by the late Swap, and the next Get must load
// fresh weights from the loader instead of serving the derived clone.
func TestRegistrySwapRefusesEvictedGeneration(t *testing.T) {
	cl := &countingLoader{t: t}
	reg := NewRegistry(cl.load, 2)
	a := ModelKey{Job: "sort"}

	ref, err := reg.GetRef(context.Background(), a)
	if err != nil {
		t.Fatalf("GetRef: %v", err)
	}
	// Derive a "fine-tuned" clone and poison its weights so serving it
	// would be detectable.
	clone, err := ref.Model.CloneCore()
	if err != nil {
		t.Fatalf("CloneCore: %v", err)
	}
	for _, p := range clone.Params() {
		p.Value.Fill(1e9)
	}

	// Evict a by filling the 2-slot registry with other keys.
	for _, k := range []ModelKey{{Job: "grep"}, {Job: "sgd"}} {
		if _, err := reg.Get(context.Background(), k); err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
	}
	if _, ok := reg.Version(a); ok {
		t.Fatal("key a still resident after eviction pressure")
	}

	if v, ok := reg.Swap(a, ref.Gen, clone); ok {
		t.Fatalf("Swap installed v%d onto an evicted generation", v)
	}
	if st := reg.Stats(); st.SwapsSkipped != 1 || st.Swaps != 0 {
		t.Fatalf("stats swaps=%d skipped=%d, want 0/1", st.Swaps, st.SwapsSkipped)
	}

	// The next Get reloads from the loader — fresh weights, version 1,
	// not the poisoned clone.
	sm, err := reg.Get(context.Background(), a)
	if err != nil {
		t.Fatalf("Get after refused swap: %v", err)
	}
	if n := cl.count(a).Load(); n != 2 {
		t.Fatalf("loader ran %d times, want 2 (initial + reload)", n)
	}
	if v, ok := reg.Version(a); !ok || v != 1 {
		t.Fatalf("reloaded version = (%d, %v), want (1, true)", v, ok)
	}
	q := testQuery(4, 10000)
	got, err := sm.Predict(q)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	want, err := loadTrained(t, int64(len(a.Job))).Predict(q.ScaleOut, q.Essential, q.Optional)
	if err != nil {
		t.Fatalf("reference Predict: %v", err)
	}
	if !quantClose(got, want) {
		t.Fatalf("reloaded model predicts %v, want fresh-weights prediction %v", got, want)
	}
}

// TestRegistrySwapRefusesReloadedGeneration: evict + reload gives the
// key a new generation; a swap holding the old generation token must
// still be refused even though the key is resident again.
func TestRegistrySwapRefusesReloadedGeneration(t *testing.T) {
	cl := &countingLoader{t: t}
	reg := NewRegistry(cl.load, 1)
	a := ModelKey{Job: "sort"}

	ref, err := reg.GetRef(context.Background(), a)
	if err != nil {
		t.Fatalf("GetRef: %v", err)
	}
	if _, err := reg.Get(context.Background(), ModelKey{Job: "grep"}); err != nil { // evicts a
		t.Fatalf("Get: %v", err)
	}
	if _, err := reg.Get(context.Background(), a); err != nil { // reloads a under a new generation
		t.Fatalf("Get: %v", err)
	}
	clone, err := ref.Model.CloneCore()
	if err != nil {
		t.Fatalf("CloneCore: %v", err)
	}
	if _, ok := reg.Swap(a, ref.Gen, clone); ok {
		t.Fatal("Swap accepted a generation from before the reload")
	}
	if v, _ := reg.Version(a); v != 1 {
		t.Fatalf("version = %d, want 1 (untouched reload)", v)
	}
}

// TestRegistrySwapConcurrentWithGets hammers Get/GetRef/Swap/eviction
// from many goroutines; run under -race this pins the lock discipline
// of the versioned slots.
func TestRegistrySwapConcurrentWithGets(t *testing.T) {
	cl := &countingLoader{t: t}
	reg := NewRegistry(cl.load, 2)
	key := ModelKey{Job: "sort", Env: "c3o"}
	evictors := []ModelKey{{Job: "grep"}, {Job: "sgd"}, {Job: "kmeans"}}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := testQuery(2+2*(g%6), 10000)
			for it := 0; it < 20; it++ {
				switch it % 3 {
				case 0:
					ref, err := reg.GetRef(context.Background(), key)
					if err != nil {
						t.Errorf("GetRef: %v", err)
						return
					}
					clone, err := ref.Model.CloneCore()
					if err != nil {
						t.Errorf("CloneCore: %v", err)
						return
					}
					reg.Swap(key, ref.Gen, clone) // may be refused; both outcomes legal
				case 1:
					sm, err := reg.Get(context.Background(), key)
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if _, err := sm.Predict(q); err != nil {
						t.Errorf("Predict: %v", err)
						return
					}
				case 2:
					if _, err := reg.Get(context.Background(), evictors[(g+it)%len(evictors)]); err != nil {
						t.Errorf("Get evictor: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := reg.Stats()
	if st.Swaps == 0 && st.SwapsSkipped == 0 {
		t.Fatal("hammer performed no swap attempts")
	}
}

func TestServiceInvalidateResultsDropsOnlyThatModel(t *testing.T) {
	cl := &countingLoader{t: t}
	svc := NewService(cl.load, Options{})
	k1 := ModelKey{Job: "sort", Env: "c3o"}
	k2 := ModelKey{Job: "grep", Env: "c3o"}
	q := testQuery(4, 10000)

	svc.Predict(context.Background(), k1, q)
	svc.Predict(context.Background(), k2, q)
	if n := svc.InvalidateResults(k1); n != 1 {
		t.Fatalf("invalidated %d results, want 1", n)
	}
	if r := svc.Predict(context.Background(), k2, q); !r.Cached {
		t.Fatal("other model's memoized result was dropped")
	}
	if r := svc.Predict(context.Background(), k1, q); r.Cached {
		t.Fatal("invalidated result still served from cache")
	}
}

// TestWarmPredictZeroAllocAfterSwap pins the acceptance criterion that
// hot-swapping preserves allocation-free warm serving: after a swap
// and one priming call, repeated predictions on the new version
// allocate nothing.
func TestWarmPredictZeroAllocAfterSwap(t *testing.T) {
	cl := &countingLoader{t: t}
	svc := NewService(cl.load, Options{})
	key := ModelKey{Job: "sort", Env: "c3o"}
	q := testQuery(4, 4096)
	if r := svc.Predict(context.Background(), key, q); r.Err != nil {
		t.Fatalf("cold Predict: %v", r.Err)
	}

	ref, err := svc.Registry().GetRef(context.Background(), key)
	if err != nil {
		t.Fatalf("GetRef: %v", err)
	}
	if _, ok := svc.Registry().Swap(key, ref.Gen, loadTrained(t, 99)); !ok {
		t.Fatal("Swap refused")
	}
	svc.InvalidateResults(key)

	// Prime: one miss against the new version warms the result cache
	// and the new model's batch buffers.
	if r := svc.Predict(context.Background(), key, q); r.Err != nil || r.Cached {
		t.Fatalf("priming Predict = %+v, want uncached success", r)
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
		t.Fatalf("warm Predict after swap allocs/op = %v, want 0", allocs)
	}

	// The model-level warm path stays allocation-free on the swapped
	// version too: repeated batched inference through the registry
	// model reuses its batch buffers and a pooled arena.
	sm, err := svc.Registry().Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	qs := []core.Query{q, testQuery(8, 4096)}
	dst := make([]float64, len(qs))
	if err := sm.PredictBatchInto(dst, qs); err != nil {
		t.Fatalf("PredictBatchInto: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sm.PredictBatchInto(dst, qs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm PredictBatchInto after swap allocs/op = %v, want 0", allocs)
	}
}

// TestServedEqualsTrained: the network a model version was trained as is
// the one that answers. A single predict and a 256-item batch of
// never-cached queries served by the registry equal, bit for bit, what a
// copy of the loaded model predicts directly (Model.PredictBatchInto) —
// and so do they after a fine-tuned version is swapped in.
func TestServedEqualsTrained(t *testing.T) {
	cl := &countingLoader{t: t}
	svc := NewService(cl.load, Options{})
	ctx := context.Background()
	key := ModelKey{Job: "sort", Env: "c3o"}
	batch := func(round int) []Request {
		reqs := make([]Request, 256)
		for i := range reqs {
			reqs[i] = Request{Key: key, Query: testQuery(1+i%40, 5000+31*i+100_000*round)}
		}
		return reqs
	}
	check := func(stage string, trained *core.Model, round int) {
		t.Helper()
		single := testQuery(7, 123_457+round)
		want, err := trained.Predict(single.ScaleOut, single.Essential, single.Optional)
		if err != nil {
			t.Fatal(err)
		}
		if r := svc.Predict(ctx, key, single); r.Err != nil || r.Cached || math.Float64bits(r.RuntimeSec) != math.Float64bits(want) {
			t.Fatalf("%s: served %v (cached %v, err %v), trained %v", stage, r.RuntimeSec, r.Cached, r.Err, want)
		}
		reqs := batch(round)
		qs := make([]core.Query, len(reqs))
		for i, r := range reqs {
			qs[i] = r.Query
		}
		wantBatch := make([]float64, len(qs))
		if err := trained.PredictBatchInto(wantBatch, qs); err != nil {
			t.Fatal(err)
		}
		for i, r := range svc.PredictBatch(ctx, reqs) {
			if r.Err != nil || r.Cached || math.Float64bits(r.RuntimeSec) != math.Float64bits(wantBatch[i]) {
				t.Fatalf("%s: batch item %d served %v (cached %v, err %v), trained %v", stage, i, r.RuntimeSec, r.Cached, r.Err, wantBatch[i])
			}
		}
	}

	ref, err := svc.Registry().GetRef(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ref.Model.CloneCore()
	if err != nil {
		t.Fatal(err)
	}
	check("loaded", loaded, 0)

	tuned, err := ref.Model.CloneCore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuned.Finetune(trainSamples(3)[:6], core.FinetuneOptions{MaxEpochs: 20}); err != nil {
		t.Fatal(err)
	}
	want, err := tuned.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Registry().Swap(key, ref.Gen, tuned); !ok {
		t.Fatal("the fine-tuned version was not swapped in")
	}
	svc.InvalidateResults(key)
	check("after a fine-tune swap", want, 1)
}
