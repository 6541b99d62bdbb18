package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
)

// testConfig shrinks the architecture and training budget so the suite
// stays fast while exercising the full serving paths.
func testConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.PropertySize = 16
	cfg.EncodingDim = 3
	cfg.EncoderHidden = 6
	cfg.ScaleOutHidden = 8
	cfg.ScaleOutDim = 4
	cfg.PredictorHidden = 6
	cfg.PretrainEpochs = 25
	cfg.Seed = seed
	return cfg
}

// trainedModelBytes pre-trains a tiny model on an Ernest-style synthetic
// curve and returns its serialized form, memoized per seed so tests and
// benchmarks share the (relatively) expensive training step.
var trainedModelBytes = func() func(t testing.TB, seed int64) []byte {
	var mu sync.Mutex
	cache := map[int64][]byte{}
	return func(t testing.TB, seed int64) []byte {
		mu.Lock()
		defer mu.Unlock()
		if b, ok := cache[seed]; ok {
			return b
		}
		m, err := core.New(testConfig(seed))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := m.Pretrain(trainSamples(seed)); err != nil {
			t.Fatalf("Pretrain: %v", err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		cache[seed] = buf.Bytes()
		return cache[seed]
	}
}()

func trainSamples(seed int64) []core.Sample {
	var out []core.Sample
	for c := 0; c < 3; c++ {
		factor := 1 + 0.4*float64(c+int(seed%3))
		for _, x := range []int{2, 4, 6, 8, 10, 12} {
			fx := float64(x)
			runtime := factor * (30 + 400/fx + 10*math.Log(fx) + 1.2*fx)
			out = append(out, core.Sample{
				ScaleOut:   x,
				Essential:  essentialProps(10000 + c*4000),
				Optional:   optionalProps(),
				RuntimeSec: runtime,
			})
		}
	}
	return out
}

func essentialProps(sizeMB int) []encoding.Property {
	return []encoding.Property{
		{Name: "dataset_size_mb", Value: strconv.Itoa(sizeMB)},
		{Name: "dataset_characteristics", Value: "uniform"},
		{Name: "job_parameters", Value: "--iterations 100"},
		{Name: "node_type", Value: "m4.xlarge"},
	}
}

func optionalProps() []encoding.Property {
	return []encoding.Property{
		{Name: "memory_mb", Value: "16384", Optional: true},
		{Name: "cpu_cores", Value: "4", Optional: true},
	}
}

// countingLoader decodes a fixed trained model per key and counts loads.
type countingLoader struct {
	t     testing.TB
	loads sync.Map // ModelKey -> *atomic.Int64
	fail  sync.Map // ModelKey -> *atomic.Int64 (remaining failures)
}

func (cl *countingLoader) count(key ModelKey) *atomic.Int64 {
	c, _ := cl.loads.LoadOrStore(key, new(atomic.Int64))
	return c.(*atomic.Int64)
}

func (cl *countingLoader) failNext(key ModelKey, n int64) {
	c := new(atomic.Int64)
	c.Store(n)
	cl.fail.Store(key, c)
}

func (cl *countingLoader) load(key ModelKey) (*core.Model, error) {
	cl.count(key).Add(1)
	if c, ok := cl.fail.Load(key); ok && c.(*atomic.Int64).Add(-1) >= 0 {
		return nil, fmt.Errorf("injected failure for %s", key)
	}
	seed := int64(len(key.Job) + len(key.Env))
	return core.Load(bytes.NewReader(trainedModelBytes(cl.t, seed)))
}

func testQuery(scaleOut, sizeMB int) core.Query {
	return core.Query{
		ScaleOut:  scaleOut,
		Essential: essentialProps(sizeMB),
		Optional:  optionalProps(),
	}
}

func TestRegistrySingleFlight(t *testing.T) {
	cl := &countingLoader{t: t}
	reg := NewRegistry(cl.load, 4)
	key := ModelKey{Job: "sort", Env: "c3o"}

	const goroutines = 32
	models := make([]*Model, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sm, err := reg.Get(context.Background(), key)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			models[g] = sm
		}(g)
	}
	wg.Wait()
	if n := cl.count(key).Load(); n != 1 {
		t.Fatalf("loader ran %d times for one key, want exactly 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if models[g] != models[0] {
			t.Fatalf("goroutine %d got a different model instance", g)
		}
	}
}

func TestRegistryDistinctKeysConcurrent(t *testing.T) {
	cl := &countingLoader{t: t}
	reg := NewRegistry(cl.load, 16)
	keys := []ModelKey{
		{Job: "sort", Env: "c3o"}, {Job: "grep", Env: "c3o"},
		{Job: "sgd", Env: "bell"}, {Job: "kmeans", Env: "c3o"},
	}
	const perKey = 16
	var wg sync.WaitGroup
	for _, key := range keys {
		for g := 0; g < perKey; g++ {
			wg.Add(1)
			go func(key ModelKey) {
				defer wg.Done()
				if _, err := reg.Get(context.Background(), key); err != nil {
					t.Errorf("Get(%s): %v", key, err)
				}
			}(key)
		}
	}
	wg.Wait()
	for _, key := range keys {
		if n := cl.count(key).Load(); n != 1 {
			t.Fatalf("loader ran %d times for %s, want exactly 1", n, key)
		}
	}
	st := reg.Stats()
	if st.Loads != int64(len(keys)) {
		t.Fatalf("Stats.Loads = %d, want %d", st.Loads, len(keys))
	}
	if st.Hits+st.Misses != int64(len(keys)*perKey) {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, len(keys)*perKey)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	cl := &countingLoader{t: t}
	reg := NewRegistry(cl.load, 2)
	a := ModelKey{Job: "sort"}
	b := ModelKey{Job: "grep"}
	c := ModelKey{Job: "sgd"}

	for _, k := range []ModelKey{a, b, c} {
		if _, err := reg.Get(context.Background(), k); err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
	}
	if n := reg.Len(); n != 2 {
		t.Fatalf("registry holds %d models, want 2", n)
	}
	if ev := reg.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// a was least recently used and must reload; c stays resident.
	if _, err := reg.Get(context.Background(), a); err != nil {
		t.Fatalf("Get(a) after eviction: %v", err)
	}
	if n := cl.count(a).Load(); n != 2 {
		t.Fatalf("loader ran %d times for evicted key, want 2", n)
	}
	if n := cl.count(c).Load(); n != 1 {
		t.Fatalf("loader ran %d times for resident key, want 1", n)
	}
}

func TestRegistryLoadErrorRetries(t *testing.T) {
	cl := &countingLoader{t: t}
	key := ModelKey{Job: "sort"}
	cl.failNext(key, 1)
	reg := NewRegistry(cl.load, 4)

	if _, err := reg.Get(context.Background(), key); err == nil {
		t.Fatal("Get succeeded despite injected load failure")
	}
	if st := reg.Stats(); st.LoadErrors != 1 {
		t.Fatalf("LoadErrors = %d, want 1", st.LoadErrors)
	}
	// The failure must not be cached.
	if _, err := reg.Get(context.Background(), key); err != nil {
		t.Fatalf("Get after failed load: %v", err)
	}
	if n := cl.count(key).Load(); n != 2 {
		t.Fatalf("loader ran %d times, want 2 (fail then retry)", n)
	}
}

func TestServicePredictMatchesModelAndCaches(t *testing.T) {
	cl := &countingLoader{t: t}
	svc := NewService(cl.load, Options{})
	key := ModelKey{Job: "sort", Env: "c3o"}
	q := testQuery(4, 10000)

	direct, err := core.Load(bytes.NewReader(trainedModelBytes(t, int64(len(key.Job)+len(key.Env)))))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	want, err := direct.Predict(q.ScaleOut, q.Essential, q.Optional)
	if err != nil {
		t.Fatalf("direct Predict: %v", err)
	}

	r1 := svc.Predict(context.Background(), key, q)
	if r1.Err != nil {
		t.Fatalf("Predict: %v", r1.Err)
	}
	if r1.Cached {
		t.Fatal("first prediction reported as cached")
	}
	// The service serves through the quantized float32 path; predictions
	// track the float64 model within the quantization bound (see
	// core.TestQuantizedPredictionAccuracy), not bit-exactly.
	if math.Abs(r1.RuntimeSec-want) > 1e-3*(1+math.Abs(want)) {
		t.Fatalf("served prediction %v != direct prediction %v", r1.RuntimeSec, want)
	}
	r2 := svc.Predict(context.Background(), key, q)
	if !r2.Cached || r2.RuntimeSec != r1.RuntimeSec {
		t.Fatalf("second prediction cached=%v value=%v, want cached copy of %v", r2.Cached, r2.RuntimeSec, r1.RuntimeSec)
	}
	st := svc.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 1 {
		t.Fatalf("result hits/misses = %d/%d, want 1/1", st.ResultHits, st.ResultMisses)
	}
}

func TestPredictBatchMatchesSequential(t *testing.T) {
	cl := &countingLoader{t: t}
	svcSeq := NewService(cl.load, Options{})
	svcBatch := NewService(cl.load, Options{})
	keys := []ModelKey{{Job: "sort", Env: "c3o"}, {Job: "sgd", Env: "bell"}}

	var reqs []Request
	for _, key := range keys {
		for x := 2; x <= 12; x += 2 {
			reqs = append(reqs, Request{Key: key, Query: testQuery(x, 12000)})
		}
	}
	var want []float64
	for _, req := range reqs {
		r := svcSeq.Predict(context.Background(), req.Key, req.Query)
		if r.Err != nil {
			t.Fatalf("sequential Predict: %v", r.Err)
		}
		want = append(want, r.RuntimeSec)
	}
	got := svcBatch.PredictBatch(context.Background(), reqs)
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("batch response %d: %v", i, r.Err)
		}
		// Batch rows and single-query rows may take different kernel
		// block paths (asm 4-row blocks vs scalar tail), so agreement is
		// to float32 kernel rounding, not bit-exact.
		if math.Abs(r.RuntimeSec-want[i]) > 1e-4*(1+math.Abs(want[i])) {
			t.Fatalf("batch response %d = %v, sequential = %v", i, r.RuntimeSec, want[i])
		}
	}
}

func TestPredictBatchDedupsRepeatedQueries(t *testing.T) {
	cl := &countingLoader{t: t}
	svc := NewService(cl.load, Options{})
	key := ModelKey{Job: "sort"}
	q := testQuery(6, 10000)
	reqs := []Request{{key, q}, {key, q}, {key, q}}

	out := svc.PredictBatch(context.Background(), reqs)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("response %d: %v", i, r.Err)
		}
		if r.RuntimeSec != out[0].RuntimeSec {
			t.Fatalf("repeated query diverged: %v vs %v", r.RuntimeSec, out[0].RuntimeSec)
		}
	}
	// All three shared one model row: one miss, zero hits (dedup happens
	// before the cache is filled), and a single memoized result.
	st := svc.Stats()
	if st.ResultMisses != 3 || st.ResultCacheLen != 1 {
		t.Fatalf("misses=%d cacheLen=%d, want 3 misses collapsing to 1 entry", st.ResultMisses, st.ResultCacheLen)
	}
}

func TestPredictBatchPartialErrors(t *testing.T) {
	cl := &countingLoader{t: t}
	badKey := ModelKey{Job: "missing"}
	cl.failNext(badKey, 1000)
	svc := NewService(cl.load, Options{})
	good := ModelKey{Job: "sort"}

	reqs := []Request{
		{good, testQuery(4, 10000)},
		{badKey, testQuery(4, 10000)},   // model load fails
		{good, testQuery(-1, 10000)},    // invalid scale-out
		{good, core.Query{ScaleOut: 4}}, // missing essential properties
		{good, testQuery(8, 10000)},
	}
	out := svc.PredictBatch(context.Background(), reqs)
	if out[0].Err != nil || out[4].Err != nil {
		t.Fatalf("valid requests failed: %v, %v", out[0].Err, out[4].Err)
	}
	for _, i := range []int{1, 2, 3} {
		if out[i].Err == nil {
			t.Fatalf("request %d succeeded, want error", i)
		}
	}
}

func TestServiceConcurrentHammer(t *testing.T) {
	cl := &countingLoader{t: t}
	svc := NewService(cl.load, Options{ModelCap: 4, ResultCap: 256})
	keys := []ModelKey{
		{Job: "sort", Env: "c3o"}, {Job: "grep", Env: "c3o"},
		{Job: "sgd", Env: "bell"},
	}

	// Reference answers computed up front, single-threaded, through the
	// same quantized serving path the hammer exercises (so the race
	// check below can demand exact equality).
	ref := map[string]float64{}
	refSvc := NewService((&countingLoader{t: t}).load, Options{ModelCap: 4})
	for _, key := range keys {
		for x := 2; x <= 12; x += 2 {
			q := testQuery(x, 10000)
			r := refSvc.Predict(context.Background(), key, q)
			if r.Err != nil {
				t.Fatalf("Predict: %v", r.Err)
			}
			ref[fingerprint(key, q)] = r.RuntimeSec
		}
	}

	const goroutines = 16
	const iters = 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				key := keys[(g+it)%len(keys)]
				x := 2 + 2*((g*iters+it)%6)
				q := testQuery(x, 10000)
				var r Response
				if it%2 == 0 {
					r = svc.Predict(context.Background(), key, q)
				} else {
					r = svc.PredictBatch(context.Background(), []Request{{key, q}})[0]
				}
				if r.Err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, it, r.Err)
					return
				}
				if want := ref[fingerprint(key, q)]; r.RuntimeSec != want {
					t.Errorf("goroutine %d iter %d: got %v, want %v", g, it, r.RuntimeSec, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, key := range keys {
		if n := cl.count(key).Load(); n != 1 {
			t.Fatalf("loader ran %d times for %s under concurrency, want exactly 1", n, key)
		}
	}
}

func TestResultCacheBounded(t *testing.T) {
	c := newResultCache(8)
	for i := 0; i < 100; i++ {
		c.put(strconv.Itoa(i), float64(i), c.snapshot())
	}
	if n := c.len(); n != 8 {
		t.Fatalf("cache len = %d, want 8", n)
	}
	// Most recent entries survive.
	if v, ok := c.get([]byte("99")); !ok || v != 99 {
		t.Fatalf("get(99) = %v, %v", v, ok)
	}
	if _, ok := c.get([]byte("0")); ok {
		t.Fatal("oldest entry survived past capacity")
	}
}

// TestResultCachePutRespectsEpoch pins the stale-memoization guard: a
// result whose computation started before an invalidation (i.e. that
// may derive from a hot-swapped-away model version) must not be stored.
func TestResultCachePutRespectsEpoch(t *testing.T) {
	c := newResultCache(8)
	epoch := c.snapshot()
	c.invalidatePrefix("anything") // concurrent swap invalidation
	c.put("stale", 1, epoch)
	if _, ok := c.get([]byte("stale")); ok {
		t.Fatal("result computed before an invalidation was memoized after it")
	}
	// A fresh snapshot taken after the invalidation stores normally.
	c.put("fresh", 2, c.snapshot())
	if v, ok := c.get([]byte("fresh")); !ok || v != 2 {
		t.Fatalf("get(fresh) = %v, %v", v, ok)
	}
}

func TestFingerprintDistinguishesRequests(t *testing.T) {
	key := ModelKey{Job: "sort", Env: "c3o"}
	base := testQuery(4, 10000)
	variants := []core.Query{
		testQuery(6, 10000),
		testQuery(4, 20000),
		{ScaleOut: 4, Essential: base.Essential}, // no optionals
	}
	fp := fingerprint(key, base)
	for i, v := range variants {
		if fingerprint(key, v) == fp {
			t.Fatalf("variant %d collides with base fingerprint", i)
		}
	}
	if fingerprint(ModelKey{Job: "grep", Env: "c3o"}, base) == fp {
		t.Fatal("different model key collides with base fingerprint")
	}
}

func TestFingerprintResistsDelimiterInjection(t *testing.T) {
	// Two optional properties vs one whose value embeds what used to be
	// the delimiter syntax of the second.
	key := ModelKey{Job: "sort", Env: "c3o"}
	ess := essentialProps(10000)
	split := core.Query{ScaleOut: 4, Essential: ess, Optional: []encoding.Property{
		{Name: "a", Value: "x"}, {Name: "b", Value: "y"},
	}}
	joined := core.Query{ScaleOut: 4, Essential: ess, Optional: []encoding.Property{
		{Name: "a", Value: "x|o:b=y"},
	}}
	if fingerprint(key, split) == fingerprint(key, joined) {
		t.Fatal("delimiter injection collides two distinct queries")
	}
	// Job containing the key separator vs split job/env.
	if fingerprint(ModelKey{Job: "a@b"}, split) == fingerprint(ModelKey{Job: "a", Env: "b"}, split) {
		t.Fatal("job \"a@b\" collides with (job a, env b)")
	}
}

// TestResultCacheKeyIsWhatTheModelReads: the cache key holds what the
// model reads and nothing else. A query whose properties are renamed is
// a hit with the value computed under the old names, alone and in a
// batch; a query that differs in any property value, in which values are
// essential and which optional, in scale-out, job or env is a miss.
func TestResultCacheKeyIsWhatTheModelReads(t *testing.T) {
	svc := NewService((&countingLoader{t: t}).load, Options{})
	ctx := context.Background()
	key := ModelKey{Job: "sort", Env: "c3o"}
	base := testQuery(4, 10000)
	first := svc.Predict(ctx, key, base)
	if first.Err != nil || first.Cached {
		t.Fatalf("first Predict = %+v, want a computed value", first)
	}

	renamed := core.Query{ScaleOut: base.ScaleOut, Essential: slices.Clone(base.Essential), Optional: slices.Clone(base.Optional)}
	for i := range renamed.Essential {
		renamed.Essential[i].Name = ""
	}
	for i := range renamed.Optional {
		renamed.Optional[i].Name = fmt.Sprint("renamed-", i)
	}
	if r := svc.Predict(ctx, key, renamed); !r.Cached || r.RuntimeSec != first.RuntimeSec {
		t.Fatalf("renamed query = %+v, want a hit of %v", r, first.RuntimeSec)
	}
	if r := svc.PredictBatch(ctx, []Request{{Key: key, Query: renamed}})[0]; !r.Cached || r.RuntimeSec != first.RuntimeSec {
		t.Fatalf("renamed query in a batch = %+v, want a hit of %v", r, first.RuntimeSec)
	}

	type variant struct {
		name string
		key  ModelKey
		q    core.Query
	}
	var variants []variant
	for _, optional := range []bool{false, true} {
		ps := base.Essential
		if optional {
			ps = base.Optional
		}
		for i := range ps {
			q := core.Query{ScaleOut: base.ScaleOut, Essential: slices.Clone(base.Essential), Optional: slices.Clone(base.Optional)}
			if optional {
				q.Optional[i].Value += "0"
			} else {
				q.Essential[i].Value += "0"
			}
			variants = append(variants, variant{fmt.Sprintf("value %d (optional %v)", i, optional), key, q})
		}
	}
	last := len(base.Essential) - 1
	variants = append(variants,
		// The same values in the same order, the last essential one moved
		// to the optional side.
		variant{"essential/optional split", key, core.Query{ScaleOut: base.ScaleOut, Essential: base.Essential[:last],
			Optional: append([]encoding.Property{base.Essential[last]}, base.Optional...)}},
		variant{"scale-out", key, core.Query{ScaleOut: base.ScaleOut + 1, Essential: base.Essential, Optional: base.Optional}},
		variant{"job", ModelKey{Job: "grep", Env: key.Env}, base},
		variant{"env", ModelKey{Job: key.Job, Env: "bell"}, base},
	)
	for _, v := range variants {
		if _, ok := svc.lookup(v.key, v.q); ok {
			t.Errorf("%s: a query that differs from the cached one is a hit", v.name)
		}
	}
}

func TestDirLoaderRejectsAmbiguousKeys(t *testing.T) {
	loader := DirLoader(t.TempDir())
	bad := []ModelKey{
		{Job: ""},
		{Job: "../etc/passwd"},
		{Job: "sort/evil"},
		{Job: `sort\evil`},
		{Job: "sort_c3o"},          // '_' is the job/env separator
		{Job: "sort", Env: "c_3o"}, // likewise in env
	}
	for _, key := range bad {
		if _, err := loader(key); err == nil {
			t.Fatalf("loader accepted ambiguous key %q", key)
		}
	}
	// A clean key fails only because the file does not exist.
	_, err := loader(ModelKey{Job: "sort", Env: "c3o"})
	if err == nil || strings.Contains(err.Error(), "invalid model key") {
		t.Fatalf("clean key rejected as invalid: %v", err)
	}
}
