package core

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/encoding"
	"repro/internal/freelist"
	"repro/internal/mat"
)

// sentinel32 is written over the idle arenas: no weight or batch value
// is ever this NaN.
const sentinel32 = 0x7fc0_de32

// idle takes every arena idle on l, most recently returned first; give
// them back with putBack.
func idle[W freelist.Item](l *freelist.List[W]) []W {
	ws := make([]W, l.Len())
	for i := range ws {
		ws[i] = l.Get()
	}
	return ws
}

// putBack returns arenas taken by idle in their old order.
func putBack[W freelist.Item](l *freelist.List[W], ws []W) {
	for i := len(ws) - 1; i >= 0; i-- {
		l.Put(ws[i])
	}
}

// headerCount reads how many matrix headers w owns (its unexported
// hdrs): the most matrices any one round has asked for.
func headerCount(w *mat.WorkspaceF32) int {
	return reflect.ValueOf(w).Elem().FieldByName("hdrs").Len()
}

// markIdleArenas fills the storage of every idle arena with the
// sentinel, through matrices that point every header into it, and puts
// the arenas back rewound, their storage still marked. It returns the
// headers' addresses and how many bytes it marked.
func markIdleArenas() (headers map[uintptr]bool, marked int) {
	headers = map[uintptr]bool{}
	ws := idle(arenas)
	for _, w := range ws {
		n, k := w.Bytes()/4, headerCount(w)
		for i := 0; i < k; i++ {
			size := n / k
			if i == k-1 {
				size = n - (k-1)*(n/k)
			}
			m := w.GetRaw(size, 1)
			for j := range m.Data {
				m.Data[j] = math.Float32frombits(sentinel32)
			}
			headers[reflect.ValueOf(m).Pointer()] = true
			marked += 4 * size
		}
	}
	putBack(arenas, ws)
	return headers, marked
}

// scratchWalk visits everything reachable from a model and reports the
// first path that reaches an arena: an arena itself, one of its headers,
// or an element of its storage.
type scratchWalk struct {
	headers map[uintptr]bool
	seen    map[struct {
		p uintptr
		t reflect.Type
	}]bool
}

var workspaceType = reflect.TypeOf((*mat.WorkspaceF32)(nil))

func (w *scratchWalk) first(p uintptr, t reflect.Type) bool {
	k := struct {
		p uintptr
		t reflect.Type
	}{p, t}
	if w.seen[k] {
		return false
	}
	w.seen[k] = true
	return true
}

func (w *scratchWalk) walk(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || !w.first(v.Pointer(), v.Type()) {
			return ""
		}
		if v.Type() == workspaceType {
			return path + " is an arena"
		}
		if w.headers[v.Pointer()] {
			return path + " is an arena's matrix"
		}
		return w.walk(v.Elem(), path)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return w.walk(v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if hit := w.walk(v.Field(i), path+"."+v.Type().Field(i).Name); hit != "" {
				return hit
			}
		}
	case reflect.Slice:
		if v.Cap() == 0 || !w.first(v.Pointer(), v.Type()) {
			return ""
		}
		return w.elems(v.Slice(0, v.Cap()), path)
	case reflect.Array:
		return w.elems(v, path)
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if hit := w.walk(it.Value(), path+"[]"); hit != "" {
				return hit
			}
		}
	}
	return ""
}

func (w *scratchWalk) elems(v reflect.Value, path string) string {
	switch v.Type().Elem().Kind() {
	case reflect.Float64:
	case reflect.Float32:
		for i := 0; i < v.Len(); i++ {
			if math.Float32bits(float32(v.Index(i).Float())) == sentinel32 {
				return path + " holds arena storage"
			}
		}
	default:
		for i := 0; i < v.Len(); i++ {
			if hit := w.walk(v.Index(i), path+"["+strconv.Itoa(i)+"]"); hit != "" {
				return hit
			}
		}
	}
	return ""
}

// TestModelsHoldNoScratch: between calls a model references no arena. A
// fresh model, a pre-trained one that has predicted, encoded and
// reconstructed, its clone, a fine-tuned clone and its quantized form —
// which have just given back the arenas their calls ran on — reach
// neither an arena, nor one of its matrix headers, nor any of its
// storage, which is marked with a sentinel first.
func TestModelsHoldNoScratch(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainEpochs = 5
	cfg.BatchSize = 16
	samples := syntheticSamples(3, []int{2, 4, 6, 8, 10, 12}) // a split batch of 16 and a tail of 2
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trained.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	if _, err := trained.Predict(s.ScaleOut, s.Essential, s.Optional); err != nil {
		t.Fatal(err)
	}
	clone, err := trained.Clone()
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := trained.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuned.Finetune(samples[:4], FinetuneOptions{MaxEpochs: 5}); err != nil {
		t.Fatal(err)
	}
	quantized, err := tuned.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if err := quantized.PredictBatchInto(make([]float64, 3), sweepQueries(s, 3)); err != nil {
		t.Fatal(err)
	}

	headers, marked := markIdleArenas()
	if marked == 0 {
		t.Fatal("marked no bytes of idle arenas: the calls gave nothing back")
	}
	for _, m := range []struct {
		name  string
		model any
	}{{"New", fresh}, {"Pretrain", trained}, {"Clone", clone}, {"Finetune", tuned}, {"Quantize", quantized}} {
		w := &scratchWalk{headers: headers, seen: map[struct {
			p uintptr
			t reflect.Type
		}]bool{}}
		if hit := w.walk(reflect.ValueOf(m.model), m.name); hit != "" {
			t.Errorf("%s model: %s", m.name, hit)
		}
	}
}

// anyShapeQueries is n queries of one context whose seven property
// values are natural numbers (encoded in place, never memoized); the
// queries fall into distinct groups that share no value.
func anyShapeQueries(n, distinct int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		g := i % distinct
		val := func(k int) string { return strconv.Itoa(1_000_000 + 8*g + k) }
		qs[i] = Query{
			ScaleOut:  1 + i%40,
			Essential: []encoding.Property{{Value: val(0)}, {Value: val(1)}, {Value: val(2)}, {Value: val(3)}},
			Optional:  []encoding.Property{{Value: val(4), Optional: true}, {Value: val(5), Optional: true}, {Value: val(6), Optional: true}},
		}
	}
	return qs
}

// TestInferPredictBatchZeroAllocAnyShape: the float32 serving path's
// scratch is an arena sized by the largest call, not a buffer per shape,
// so after one 256-query call with every value distinct, calls of 1, 7,
// 64 and 255 queries with one to all-distinct values allocate nothing —
// every one of them a (batch, distinct-row) shape the model has not met,
// each counted from its first call.
func TestInferPredictBatchZeroAllocAnyShape(t *testing.T) {
	_, im, _ := quantTestModel(t)
	if err := im.PredictBatchInto(make([]float64, 256), anyShapeQueries(256, 256)); err != nil {
		t.Fatal(err)
	}
	setProcs(t, 1) // as testing.AllocsPerRun does: nothing else allocates meanwhile
	for _, n := range []int{1, 7, 64, 255} {
		for _, distinct := range slices.Compact([]int{1, max(1, n/3), n}) {
			qs, dst := anyShapeQueries(n, distinct), make([]float64, n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := im.PredictBatchInto(dst, qs)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
				t.Errorf("%d queries, %d distinct contexts: the first call allocates %d times, want 0", n, distinct, allocs)
			}
		}
	}
}

// TestCloneFinetuneAllocCeiling bounds what one context model of the
// paper's second step costs: Clone plus a 40-epoch fine-tune on k = 3
// samples allocates weights, gradients, batch buffers, optimizer state
// and best-state snapshot, and borrows the arena its passes run on.
// Measured on linux/amd64: 337 allocations of 64.2 KB (341 and 66.6 KB
// under -race), where a model that grew a private arena made 388 of
// 70.2 KB; the ceiling leaves a few percent of headroom.
func TestCloneFinetuneAllocCeiling(t *testing.T) {
	const maxAllocs, maxBytes = 360, 70_000
	cfg := testConfig()
	cfg.PretrainEpochs = 5
	general, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := general.Pretrain(syntheticSamples(3, []int{2, 4, 6, 8, 10, 12})); err != nil {
		t.Fatal(err)
	}
	ctx := syntheticSamples(1, []int{2, 6, 12})
	opts := FinetuneOptions{MaxEpochs: 40}
	fit := func() {
		c, err := general.Clone()
		if err == nil {
			_, err = c.Finetune(ctx, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	fit()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, fit)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up run
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("Clone + Finetune(k=3) makes %.0f allocations of %.0f bytes, ceiling %d and %d",
			allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestArenaFreeListIsBoundedLIFO: the arena lists hand back the arena
// returned last, keep at most GOMAXPROCS+1 idle and drop the rest —
// however large, as they have no byte bound — and their byte count is
// what the kept ones hold.
func TestArenaFreeListIsBoundedLIFO(t *testing.T) {
	l := freelist.New(mat.NewWorkspaceF32, 0)
	bound := runtime.GOMAXPROCS(0) + 1
	ws := make([]*mat.WorkspaceF32, bound+2)
	for i := range ws {
		ws[i] = l.Get()
		ws[i].Get(512*(i+1), 8) // 16 KiB and up: no byte bound drops them
	}
	kept := 0
	for i, w := range ws {
		l.Put(w)
		if i < bound {
			kept += w.Bytes()
		}
	}
	if l.Len() != bound || l.IdleBytes() != kept {
		t.Fatalf("%d idle arenas of %d bytes, want %d of %d", l.Len(), l.IdleBytes(), bound, kept)
	}
	for i := bound - 1; i >= 0; i-- {
		if w := l.Get(); w != ws[i] {
			t.Fatalf("get %d returned another arena than the one put %d-th", bound-1-i, i)
		}
	}
	if l.IdleBytes() != 0 || slices.Contains(ws, l.Get()) {
		t.Fatal("an empty list handed out a dropped arena or still counts bytes")
	}
}

// TestPretrainReportsScratchHighWater: TrainReport.ScratchBytes is the
// largest pass of each shard summed over both, so it repeats exactly for
// the same run, and the two arenas the run gave back hold at least that.
func TestPretrainReportsScratchHighWater(t *testing.T) {
	run := func() int {
		m, rep := pretrainShards(t, 4)
		if m == nil {
			t.FailNow()
		}
		ws := idle(arenas)
		defer putBack(arenas, ws)
		if held := ws[0].Bytes() + ws[1].Bytes(); rep.ScratchBytes <= 0 || rep.ScratchBytes > held {
			t.Fatalf("ScratchBytes = %d; the run's two arenas hold %d", rep.ScratchBytes, held)
		}
		return rep.ScratchBytes
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("the same pre-training reports %d and %d scratch bytes", a, b)
	}
}
