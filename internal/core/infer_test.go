package core

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/encoding"
)

// quantTestModel pre-trains a small model on the synthetic corpus and
// returns it with its quantized serving twin plus a query set covering
// seen and unseen scale-outs and partial optional properties.
func quantTestModel(t *testing.T) (*Model, *InferModel, []Query) {
	t.Helper()
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(3, []int{2, 4, 6, 8, 10, 12})
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	im, err := m.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for _, s := range samples {
		queries = append(queries, Query{ScaleOut: s.ScaleOut, Essential: s.Essential, Optional: s.Optional})
	}
	// Unseen scale-out, and a query with fewer optional properties than
	// slots (exercises the zeroed-slot mean path).
	queries = append(queries,
		Query{ScaleOut: 16, Essential: samples[0].Essential, Optional: samples[0].Optional},
		Query{ScaleOut: 5, Essential: samples[0].Essential, Optional: samples[0].Optional[:1]},
		Query{ScaleOut: 7, Essential: samples[0].Essential},
	)
	return m, im, queries
}

// TestQuantizedPredictionAccuracy: the serving snapshot answers what the
// trained model answers, bit for bit — in a batch and one query at a
// time — since the network trains in the precision it serves in (the
// float64-trained network's quantized copy was held to 1e-3 relative).
// Then, as before, a single Predict agrees with the batch path to
// float32 kernel rounding.
func TestQuantizedPredictionAccuracy(t *testing.T) {
	m, im, queries := quantTestModel(t)

	want := make([]float64, len(queries))
	if err := m.PredictBatchInto(want, queries); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(queries))
	if err := im.PredictBatchInto(got, queries); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d: served %v, trained %v", i, got[i], want[i])
		}
		if got[i] < 0 {
			t.Fatalf("query %d: negative runtime %v", i, got[i])
		}
		q := queries[i]
		served, err := im.Predict(q.ScaleOut, q.Essential, q.Optional)
		if err != nil {
			t.Fatal(err)
		}
		trained, err := m.Predict(q.ScaleOut, q.Essential, q.Optional)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(served) != math.Float64bits(trained) {
			t.Fatalf("query %d alone: served %v, trained %v", i, served, trained)
		}
	}

	// Single-query Predict agrees with the batch path to float32 kernel
	// rounding: the strided asm kernels process rows in blocks of 4, so
	// a row's accumulation order depends on its position in the batch
	// (asm 4-block vs scalar tail) — a few f32 ulps.
	q := queries[0]
	single, err := im.Predict(q.ScaleOut, q.Essential, q.Optional)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(single-got[0]) / (1 + math.Abs(got[0])); rel > 1e-4 {
		t.Fatalf("Predict = %v, batch row 0 = %v (rel err %.3g)", single, got[0], rel)
	}

	// The snapshot is independent of the model: training m further does
	// not move what it serves.
	before := append([]float64(nil), got...)
	if _, err := m.Finetune(syntheticSamples(1, []int{2, 4, 8}), FinetuneOptions{MaxEpochs: 3}); err != nil {
		t.Fatal(err)
	}
	if err := im.PredictBatchInto(got, queries); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != before[i] {
			t.Fatalf("query %d: the snapshot moved from %v to %v when its source trained on", i, before[i], got[i])
		}
	}
}

// TestQuantizeCarriesMetadata checks the serving model keeps the
// provenance the allocation engine's fallback decision consults, and
// that validation matches the float64 model.
func TestQuantizeCarriesMetadata(t *testing.T) {
	m, im, _ := quantTestModel(t)
	if im.Pretrained() != m.Pretrained() {
		t.Fatalf("Pretrained = %v, want %v", im.Pretrained(), m.Pretrained())
	}
	if im.FinetuneSamples() != m.FinetuneSamples() {
		t.Fatalf("FinetuneSamples = %d, want %d", im.FinetuneSamples(), m.FinetuneSamples())
	}
	if err := im.ValidateQuery(Query{ScaleOut: 0}); err == nil {
		t.Fatal("zero scale-out not rejected")
	}
	if err := im.ValidateQuery(Query{ScaleOut: 2}); err == nil {
		t.Fatal("missing essential properties not rejected")
	}
}

// TestInferPredictBatchZeroAllocWarm pins the float32 serving path's
// steady state: after one warming call, PredictBatchInto of the same
// batch size allocates nothing.
func TestInferPredictBatchZeroAllocWarm(t *testing.T) {
	_, im, queries := quantTestModel(t)
	dst := make([]float64, len(queries))
	if err := im.PredictBatchInto(dst, queries); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := im.PredictBatchInto(dst, queries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm quantized PredictBatchInto allocates %.1f/op, want 0", allocs)
	}
}

// sweepQueries asks for one context at scale-outs 1..n.
func sweepQueries(ctx Sample, n int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{ScaleOut: i + 1, Essential: ctx.Essential, Optional: ctx.Optional}
	}
	return qs
}

// TestInferDistinctRowsMatchPerOccurrence pins the distinct-row serving
// pass against per-query Predict, which encodes every occurrence: a
// 64-scale-out sweep of one context, a 256-item batch mixing five
// contexts with never-repeated dataset sizes and 0 to 3 optional
// properties, a batch in which no value repeats, and a single query
// agree to 1e-6 relative, and the encoder runs on as many rows as the
// call has distinct values — for the sweep, the context's seven.
func TestInferDistinctRowsMatchPerOccurrence(t *testing.T) {
	_, im, _ := quantTestModel(t)
	contexts := syntheticSamples(5, []int{2})

	mixed := make([]Query, 256)
	mixedDistinct := map[string]bool{}
	for i := range mixed {
		c := contexts[i%len(contexts)]
		q := Query{ScaleOut: 1 + i%24, Essential: slices.Clone(c.Essential), Optional: c.Optional[:i%4]}
		if i%3 == 0 {
			q.Essential[0].Value = strconv.Itoa(50000 + i)
		}
		for _, p := range q.Essential {
			mixedDistinct[p.Value] = true
		}
		for _, p := range q.Optional {
			mixedDistinct[p.Value] = true
		}
		mixed[i] = q
	}
	var unique []Query
	for _, s := range distinctSamples(40) {
		unique = append(unique, Query{ScaleOut: s.ScaleOut, Essential: s.Essential, Optional: s.Optional})
	}
	// Two of its properties carry the same value: the encoder runs on
	// it once, in a call of one query as in a call of two.
	twin := Query{ScaleOut: 4, Essential: contexts[0].Essential, Optional: []encoding.Property{
		{Name: "memory_mb", Value: "4", Optional: true}, {Name: "cpu_cores", Value: "4", Optional: true},
	}}

	for _, tc := range []struct {
		name     string
		queries  []Query
		distinct int
	}{
		{"sweep", sweepQueries(contexts[1], 64), 7},
		{"mixed", mixed, len(mixedDistinct)},
		{"all-unique", unique, 40 * 7},
		{"no-optionals", sweepQueries(Sample{Essential: contexts[2].Essential}, 8), 4},
		{"one-query", []Query{twin}, 5},
		{"two-queries", []Query{twin, twin}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make([]float64, len(tc.queries))
			if err := im.PredictBatchInto(got, tc.queries); err != nil {
				t.Fatal(err)
			}
			property, distinct := im.LastRows()
			wantProperty := 0
			for _, q := range tc.queries {
				wantProperty += len(q.Essential) + len(q.Optional)
			}
			if property != wantProperty || distinct != tc.distinct {
				t.Fatalf("LastRows %d property values on %d distinct, want %d and %d",
					property, distinct, wantProperty, tc.distinct)
			}
			if len(im.m.rows.vals) != 0 {
				t.Fatalf("the table still holds %d values after the call", len(im.m.rows.vals))
			}
			for i, q := range tc.queries {
				want, err := im.Predict(q.ScaleOut, q.Essential, q.Optional)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got[i]-want) > 1e-6*(1+math.Abs(want)) {
					t.Fatalf("query %d: the batch says %v, Predict %v", i, got[i], want)
				}
			}
		})
	}
}

// TestModelSharesRowsWhateverItHasSeen: the float64 model's table of
// property values is per call, so the model that has answered for more
// distinct values than any table would keep still encodes a value it
// meets for the first time once per call, and holds no value afterwards.
func TestModelSharesRowsWhateverItHasSeen(t *testing.T) {
	m, _, _ := quantTestModel(t)
	seen := 0
	for batch := 0; seen <= 4096; batch++ {
		qs := make([]Query, 64)
		for i, s := range distinctSamples(len(qs)) {
			s.Essential[0].Value = strconv.Itoa(100000 + batch*len(qs) + i)
			qs[i] = Query{ScaleOut: s.ScaleOut, Essential: s.Essential, Optional: s.Optional}
		}
		if err := m.PredictBatchInto(make([]float64, len(qs)), qs); err != nil {
			t.Fatal(err)
		}
		_, distinct := m.LastRows()
		seen += distinct
	}
	ctx := syntheticSamples(1, []int{2})[0]
	ctx.Essential[0].Value = "31337" // never seen by this model
	qs := sweepQueries(ctx, 16)
	if err := m.PredictBatchInto(make([]float64, len(qs)), qs); err != nil {
		t.Fatal(err)
	}
	if property, distinct := m.LastRows(); property != 16*7 || distinct != 7 || m.inferB.props.Rows != 7 {
		t.Fatalf("after %d distinct values a 16-query sweep of a new context encoded %d rows for %d property values (LastRows %d, %d), want 7 for 112",
			seen, m.inferB.props.Rows, 16*7, property, distinct)
	}
	if len(m.rows.vals) != 0 {
		t.Fatalf("the table still holds %d values after the call", len(m.rows.vals))
	}
}

// TestPredictionIgnoresPropertyNames: a model reads a query's scale-out
// and its property values by position, never their names. Renaming every
// property — to empty names, to each other's, to random ones — leaves
// Predict and PredictBatchInto of the float64 model and of its float32
// form bit-identical. The serving tier keys its result cache on this
// (serve.appendFingerprint leaves names out): if a model ever starts
// reading names, this test fails, and the cache key must take them back.
func TestPredictionIgnoresPropertyNames(t *testing.T) {
	m, im, queries := quantTestModel(t)
	rng := rand.New(rand.NewSource(1))
	renames := []struct {
		name   string
		rename func(ps []encoding.Property, i int) string
	}{
		{"empty", func([]encoding.Property, int) string { return "" }},
		{"swapped", func(ps []encoding.Property, i int) string { return ps[len(ps)-1-i].Name }},
		{"random", func([]encoding.Property, int) string { return strconv.FormatUint(rng.Uint64(), 36) }},
	}
	models := []struct {
		name    string
		predict func(q Query) (float64, error)
		batch   func(dst []float64, qs []Query) error
	}{
		{"Model", func(q Query) (float64, error) { return m.Predict(q.ScaleOut, q.Essential, q.Optional) }, m.PredictBatchInto},
		{"InferModel", func(q Query) (float64, error) { return im.Predict(q.ScaleOut, q.Essential, q.Optional) }, im.PredictBatchInto},
	}
	for _, r := range renames {
		renamed := make([]Query, len(queries))
		for i, q := range queries {
			renamed[i] = Query{ScaleOut: q.ScaleOut, Essential: slices.Clone(q.Essential), Optional: slices.Clone(q.Optional)}
			for _, ps := range [][]encoding.Property{renamed[i].Essential, renamed[i].Optional} {
				orig := slices.Clone(ps)
				for k := range ps {
					ps[k].Name = r.rename(orig, k)
				}
			}
		}
		for _, md := range models {
			want, got := make([]float64, len(queries)), make([]float64, len(queries))
			if err := md.batch(want, queries); err != nil {
				t.Fatal(err)
			}
			if err := md.batch(got, renamed); err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				// A single prediction may differ from a batch in the last
				// bit; it must not differ from itself.
				wantOne, err := md.predict(queries[i])
				if err != nil {
					t.Fatal(err)
				}
				one, err := md.predict(renamed[i])
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(one) != math.Float64bits(wantOne) {
					t.Fatalf("%s, %s names: query %d predicts %v in a batch and %v alone, %v and %v as named",
						md.name, r.name, i, got[i], one, want[i], wantOne)
				}
			}
		}
	}
}
