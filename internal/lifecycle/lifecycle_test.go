package lifecycle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/serve"
)

var (
	_ serve.Observer         = (*Controller)(nil)
	_ serve.SwapNotifier     = (*Controller)(nil)
	_ serve.LifecycleStatser = (*Controller)(nil)
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.PropertySize = 16
	cfg.EncodingDim = 3
	cfg.EncoderHidden = 6
	cfg.ScaleOutHidden = 8
	cfg.ScaleOutDim = 4
	cfg.PredictorHidden = 6
	cfg.PretrainEpochs = 40
	cfg.Seed = 11
	return cfg
}

// trueRuntime is the scaling curve of the "live" context the serve
// models have never seen: the pre-training corpus uses factor 1.0,
// live observations arrive from factor-2.2 executions.
func trueRuntime(factor float64, scaleOut int) float64 {
	x := float64(scaleOut)
	return factor * (30 + 400/x + 10*math.Log(x) + 1.2*x)
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

func testQuery(scaleOut, sizeMB int) core.Query {
	return core.Query{
		ScaleOut:  scaleOut,
		Essential: essentialProps(sizeMB),
		Optional:  optionalProps(),
	}
}

// pretrainedBytes serializes a model pre-trained on factor-1.0 contexts,
// memoized so every test shares one training run.
var pretrainedBytes = func() func(t testing.TB) []byte {
	var once sync.Once
	var blob []byte
	return func(t testing.TB) []byte {
		once.Do(func() {
			m, err := core.New(testConfig())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			var samples []core.Sample
			for _, size := range []int{10000, 14000, 18000} {
				for x := 2; x <= 12; x += 2 {
					samples = append(samples, core.Sample{
						ScaleOut:   x,
						Essential:  essentialProps(size),
						Optional:   optionalProps(),
						RuntimeSec: trueRuntime(1.0, x),
					})
				}
			}
			if _, err := m.Pretrain(samples); err != nil {
				t.Fatalf("Pretrain: %v", err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			blob = buf.Bytes()
		})
		return blob
	}
}()

// testLoader serves the shared pre-trained model for every key and
// counts loads.
type testLoader struct {
	t     testing.TB
	loads atomic.Int64
}

func (l *testLoader) load(key serve.ModelKey) (*core.Model, error) {
	l.loads.Add(1)
	return core.Load(bytes.NewReader(pretrainedBytes(l.t)))
}

func observedSamples() (qs []core.Query, runtimes []float64) {
	for _, size := range []int{10000, 14000} {
		for x := 2; x <= 12; x += 2 {
			qs = append(qs, testQuery(x, size))
			runtimes = append(runtimes, trueRuntime(2.2, x))
		}
	}
	return qs, runtimes
}

func serviceMAE(t *testing.T, svc *serve.Service, key serve.ModelKey, qs []core.Query, truths []float64) float64 {
	t.Helper()
	var sum float64
	for i, q := range qs {
		r := svc.Predict(context.Background(), key, q)
		if r.Err != nil {
			t.Fatalf("Predict: %v", r.Err)
		}
		sum += math.Abs(r.RuntimeSec - truths[i])
	}
	return sum / float64(len(qs))
}

func fastFinetune() core.FinetuneOptions {
	return core.FinetuneOptions{Strategy: core.StrategyPartialUnfreeze, MaxEpochs: 400, Patience: 400}
}

// TestObserveFinetuneSwapImproves is the end-to-end acceptance test of
// the lifecycle: observations of an unseen context flow in through the
// service, the controller fine-tunes a clone in the background, the
// registry hot-swaps to version 2 without a restart, the prediction
// error on the observed samples drops, stale memoized results are
// invalidated, and warm serving on the new version stays
// allocation-free.
func TestObserveFinetuneSwapImproves(t *testing.T) {
	tl := &testLoader{t: t}
	svc := serve.NewService(tl.load, serve.Options{})
	ctl := New(svc.Registry(), Config{
		MinSamples: 8,
		Interval:   time.Hour, // background loop unused; RunOnce drives the test
		Workers:    1,
		Finetune:   fastFinetune(),
	})
	svc.AttachObserver(ctl)
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	qs, truths := observedSamples()

	maeBefore := serviceMAE(t, svc, key, qs, truths)
	if v, ok := svc.Registry().Version(key); !ok || v != 1 {
		t.Fatalf("initial version = (%d, %v), want (1, true)", v, ok)
	}
	// This prediction is now memoized; the swap must invalidate it.
	cachedBefore := svc.Predict(context.Background(), key, qs[0])
	if cachedBefore.Err != nil || !cachedBefore.Cached {
		t.Fatalf("expected memoized prediction, got %+v", cachedBefore)
	}

	// Nothing observed yet: no trigger.
	if n := ctl.RunOnce(); n != 0 {
		t.Fatalf("RunOnce before observations swapped %d models, want 0", n)
	}
	for i, q := range qs {
		if err := svc.Observe(context.Background(), key, q, truths[i]); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if st := ctl.LifecycleStats(); st.Observations != int64(len(qs)) || st.PendingSamples != len(qs) {
		t.Fatalf("stats = %+v, want %d pending observations", st, len(qs))
	}

	if n := ctl.RunOnce(); n != 1 {
		t.Fatalf("RunOnce swapped %d models, want 1", n)
	}
	if v, ok := svc.Registry().Version(key); !ok || v != 2 {
		t.Fatalf("version after swap = (%d, %v), want (2, true)", v, ok)
	}
	if n := tl.loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1 (swap is in-memory)", n)
	}

	// The memoized pre-swap result must be gone: the same query now
	// takes a fresh forward pass on the new version.
	afterSwap := svc.Predict(context.Background(), key, qs[0])
	if afterSwap.Err != nil {
		t.Fatalf("Predict after swap: %v", afterSwap.Err)
	}
	if afterSwap.Cached {
		t.Fatal("pre-swap memoized result survived the hot-swap")
	}
	if afterSwap.RuntimeSec == cachedBefore.RuntimeSec {
		t.Fatal("post-swap prediction identical to pre-swap value; swap had no effect")
	}

	maeAfter := serviceMAE(t, svc, key, qs, truths)
	if maeAfter >= maeBefore*0.5 {
		t.Fatalf("MAE %.2fs -> %.2fs: fine-tune did not improve predictions enough", maeBefore, maeAfter)
	}
	t.Logf("MAE on observed context: %.2fs -> %.2fs", maeBefore, maeAfter)

	// Warm serving on the swapped version is allocation-free.
	q := qs[1]
	if r := svc.Predict(context.Background(), key, q); r.Err != nil {
		t.Fatalf("prime Predict: %v", r.Err)
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
		t.Fatalf("warm Predict on swapped model allocs/op = %v, want 0", allocs)
	}

	st := ctl.LifecycleStats()
	if st.Finetunes != 1 || st.Swaps != 1 || st.FinetuneErrors != 0 || st.SwapsSkipped != 0 {
		t.Fatalf("stats = %+v, want exactly one clean finetune+swap", st)
	}
	if st.PendingSamples != 0 {
		t.Fatalf("pending = %d after digest, want 0", st.PendingSamples)
	}
	if st.MeanFinetuneUsec <= 0 {
		t.Fatalf("MeanFinetuneUsec = %v, want > 0", st.MeanFinetuneUsec)
	}
}

func TestObserveValidation(t *testing.T) {
	tl := &testLoader{t: t}
	ctl := New(serve.NewRegistry(tl.load, 4), Config{})
	key := serve.ModelKey{Job: "sort"}
	if err := ctl.Observe(context.Background(), serve.ModelKey{}, testQuery(4, 10000), 10); err == nil {
		t.Fatal("accepted observation without job")
	}
	if err := ctl.Observe(context.Background(), key, testQuery(-1, 10000), 10); err == nil {
		t.Fatal("accepted non-positive scale-out")
	}
	for _, rt := range []float64{0, math.NaN(), math.Inf(1)} {
		if err := ctl.Observe(context.Background(), key, testQuery(4, 10000), rt); err == nil {
			t.Fatalf("accepted runtime %v", rt)
		}
	}
	if err := ctl.Observe(context.Background(), key, testQuery(4, 10000), 12.5); err != nil {
		t.Fatalf("rejected valid observation: %v", err)
	}
	st := ctl.LifecycleStats()
	if st.Rejected != 5 || st.Observations != 1 {
		t.Fatalf("stats = %+v, want 5 rejected / 1 accepted", st)
	}
}

// TestShapeInvalidObservationsDroppedAtFinetune: observations whose
// property counts don't match the model architecture pass ingestion
// (the model may not be resident) but are dropped at fine-tune time
// instead of failing the run.
func TestShapeInvalidObservationsDroppedAtFinetune(t *testing.T) {
	tl := &testLoader{t: t}
	reg := serve.NewRegistry(tl.load, 4)
	ctl := New(reg, Config{MinSamples: 1, Finetune: fastFinetune()})
	key := serve.ModelKey{Job: "sort"}

	// Wrong essential-property count for the architecture.
	bad := core.Query{ScaleOut: 4, Essential: essentialProps(10000)[:2]}
	if err := ctl.Observe(context.Background(), key, bad, 50); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if n := ctl.RunOnce(); n != 0 {
		t.Fatalf("swapped %d models from shape-invalid observations, want 0", n)
	}
	st := ctl.LifecycleStats()
	if st.Rejected != 1 || st.Finetunes != 0 {
		t.Fatalf("stats = %+v, want 1 rejected and no finetune", st)
	}

	// A mixed batch keeps the valid samples.
	qs, truths := observedSamples()
	if err := ctl.Observe(context.Background(), key, bad, 50); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := ctl.Observe(context.Background(), key, qs[i], truths[i]); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if n := ctl.RunOnce(); n != 1 {
		t.Fatalf("swapped %d models, want 1", n)
	}
	if st := ctl.LifecycleStats(); st.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.Rejected)
	}

	// The shape-invalid samples were purged from the ring: another
	// fine-tune round must not re-reject them.
	for i := 0; i < 8; i++ {
		j := (8 + i) % len(qs)
		if err := ctl.Observe(context.Background(), key, qs[j], truths[j]); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if n := ctl.RunOnce(); n != 1 {
		t.Fatalf("swapped %d models, want 1", n)
	}
	if st := ctl.LifecycleStats(); st.Rejected != 2 {
		t.Fatalf("rejected = %d after another fine-tune, want 2 (each bad sample counted once)", st.Rejected)
	}
}

// TestTransientLoadFailureRequeuesObservations: a fine-tune attempt
// that dies on a transient model-load failure must restore the
// observation window so the next scan retries, instead of silently
// discarding the samples.
func TestTransientLoadFailureRequeuesObservations(t *testing.T) {
	tl := &testLoader{t: t}
	var failing atomic.Bool
	loader := func(key serve.ModelKey) (*core.Model, error) {
		if failing.Load() {
			return nil, errTransient
		}
		return tl.load(key)
	}
	// A short interval keeps the retry backoff (base = Interval) testable.
	ctl := New(serve.NewRegistry(loader, 4), Config{MinSamples: 8, Interval: time.Millisecond, Finetune: fastFinetune()})
	key := serve.ModelKey{Job: "sort"}
	qs, truths := observedSamples()
	for i := 0; i < 8; i++ {
		if err := ctl.Observe(context.Background(), key, qs[i], truths[i]); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}

	failing.Store(true)
	if n := ctl.RunOnce(); n != 0 {
		t.Fatalf("swapped %d models through a failing loader", n)
	}
	st := ctl.LifecycleStats()
	if st.FinetuneErrors != 1 || st.Finetunes != 0 {
		t.Fatalf("stats = %+v, want 1 pre-finetune error and no finetune", st)
	}
	if st.PendingSamples != 8 {
		t.Fatalf("pending = %d after transient failure, want 8 (requeued)", st.PendingSamples)
	}

	failing.Store(false)
	// Once the backoff window passes, the retry digests the window.
	time.Sleep(5 * time.Millisecond)
	if n := ctl.RunOnce(); n != 1 {
		t.Fatalf("retry swapped %d models, want 1", n)
	}
}

// TestLoadFailureBacksOff: a key whose model load keeps failing must
// not grind the loader on every scan — retries are delayed
// exponentially, so junk observations for a nonexistent model decay to
// rare load attempts instead of permanent registry churn.
func TestLoadFailureBacksOff(t *testing.T) {
	var loads atomic.Int64
	loader := func(key serve.ModelKey) (*core.Model, error) {
		loads.Add(1)
		return nil, errTransient
	}
	// A long interval makes the first backoff window (1 interval)
	// effectively unreachable within the test.
	ctl := New(serve.NewRegistry(loader, 4), Config{MinSamples: 1, Interval: time.Hour, Finetune: fastFinetune()})
	key := serve.ModelKey{Job: "ghost"}
	if err := ctl.Observe(context.Background(), key, testQuery(4, 10000), 10); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	ctl.RunOnce()
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	// Scans inside the backoff window must not touch the loader again,
	// even though the samples are still pending.
	for i := 0; i < 5; i++ {
		ctl.RunOnce()
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times during backoff, want 1", n)
	}
	if st := ctl.LifecycleStats(); st.PendingSamples != 1 || st.FinetuneErrors != 1 {
		t.Fatalf("stats = %+v, want the sample still pending behind backoff", st)
	}
}

// TestObserveKeyBound: the per-key buffer map is bounded; a stream of
// distinct junk keys cannot grow memory without limit.
func TestObserveKeyBound(t *testing.T) {
	tl := &testLoader{t: t}
	ctl := New(serve.NewRegistry(tl.load, 4), Config{MaxKeys: 2})
	q := testQuery(4, 10000)
	for _, job := range []string{"a", "b"} {
		if err := ctl.Observe(context.Background(), serve.ModelKey{Job: job}, q, 10); err != nil {
			t.Fatalf("Observe(%s): %v", job, err)
		}
	}
	err := ctl.Observe(context.Background(), serve.ModelKey{Job: "c"}, q, 10)
	if err == nil {
		t.Fatal("observation for a key past the bound was accepted")
	}
	if !errors.Is(err, serve.ErrObserveCapacity) {
		t.Fatalf("capacity rejection %v does not wrap serve.ErrObserveCapacity", err)
	}
	// Known keys keep working at the bound.
	if err := ctl.Observe(context.Background(), serve.ModelKey{Job: "a"}, q, 11); err != nil {
		t.Fatalf("Observe on existing key at the bound: %v", err)
	}
	st := ctl.LifecycleStats()
	if st.Rejected != 1 || st.Observations != 3 {
		t.Fatalf("stats = %+v, want 1 rejected / 3 accepted", st)
	}
}

// TestBufferLazyGrowth: a new key's ring starts small and grows toward
// BufferCap only under sustained observation traffic.
func TestBufferLazyGrowth(t *testing.T) {
	b := newBuffer(64)
	if len(b.samples) != initialRingCap {
		t.Fatalf("fresh ring holds %d slots, want %d", len(b.samples), initialRingCap)
	}
	now := time.Now()
	for i := 1; i <= 40; i++ {
		b.add(core.Sample{ScaleOut: i, RuntimeSec: float64(i)}, now)
	}
	got, fresh, ok := b.takeIfTriggered(now, 1, 0)
	if !ok || len(got) != 40 || fresh != 40 {
		t.Fatalf("take = (%d samples, %d fresh, %v), want all 40", len(got), fresh, ok)
	}
	for i, s := range got {
		if s.ScaleOut != i+1 {
			t.Fatalf("sample %d is scale-out %d, want %d (order preserved across growth)", i, s.ScaleOut, i+1)
		}
	}
	if len(b.samples) > 64 {
		t.Fatalf("ring grew to %d slots past its 64 cap", len(b.samples))
	}
}

var errTransient = fmt.Errorf("models directory briefly unreadable")

func TestMinSamplesAndStalenessTriggers(t *testing.T) {
	tl := &testLoader{t: t}
	qs, truths := observedSamples()
	key := serve.ModelKey{Job: "sort"}

	// Below the size trigger with staleness disabled: nothing runs.
	ctl := New(serve.NewRegistry(tl.load, 4), Config{MinSamples: 100, MaxStaleness: -1, Finetune: fastFinetune()})
	for i := 0; i < 3; i++ {
		if err := ctl.Observe(context.Background(), key, qs[i], truths[i]); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if n := ctl.RunOnce(); n != 0 {
		t.Fatalf("under-threshold buffer triggered %d fine-tunes", n)
	}
	if st := ctl.LifecycleStats(); st.PendingSamples != 3 {
		t.Fatalf("pending = %d, want 3 (undigested)", st.PendingSamples)
	}

	// Same few samples with a tiny staleness bound: the trickle gets
	// digested even though MinSamples is far away.
	ctl2 := New(serve.NewRegistry(tl.load, 4), Config{MinSamples: 100, MaxStaleness: time.Nanosecond, Finetune: fastFinetune()})
	for i := 0; i < 3; i++ {
		if err := ctl2.Observe(context.Background(), key, qs[i], truths[i]); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	time.Sleep(time.Millisecond)
	if n := ctl2.RunOnce(); n != 1 {
		t.Fatalf("stale trickle triggered %d fine-tunes, want 1", n)
	}
}

// TestMinSamplesClampedToBufferCap: fresh is capped at the ring
// occupancy, so a size trigger above the ring capacity could never
// fire; the config clamps it so a full ring always triggers even with
// the staleness trigger disabled.
func TestMinSamplesClampedToBufferCap(t *testing.T) {
	tl := &testLoader{t: t}
	ctl := New(serve.NewRegistry(tl.load, 4), Config{
		MinSamples: 100, BufferCap: 4, MaxStaleness: -1, Finetune: fastFinetune(),
	})
	key := serve.ModelKey{Job: "sort"}
	qs, truths := observedSamples()
	for i := 0; i < 4; i++ {
		if err := ctl.Observe(context.Background(), key, qs[i], truths[i]); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if n := ctl.RunOnce(); n != 1 {
		t.Fatalf("full ring swapped %d models, want 1 (MinSamples clamped to BufferCap)", n)
	}
}

func TestBufferRingOverwrite(t *testing.T) {
	b := newBuffer(4)
	now := time.Now()
	for i := 1; i <= 6; i++ {
		b.add(core.Sample{ScaleOut: i, RuntimeSec: float64(i)}, now)
	}
	got, fresh, ok := b.takeIfTriggered(now, 1, 0)
	if !ok {
		t.Fatal("full ring did not trigger")
	}
	if len(got) != 4 || fresh != 4 {
		t.Fatalf("ring kept %d samples (%d fresh), want 4 (4 fresh)", len(got), fresh)
	}
	for i, s := range got {
		if s.ScaleOut != i+3 {
			t.Fatalf("sample %d is scale-out %d, want %d (oldest first, oldest two overwritten)", i, s.ScaleOut, i+3)
		}
	}
	// While tuning, the buffer keeps absorbing but never re-triggers.
	b.add(core.Sample{ScaleOut: 7, RuntimeSec: 7}, now)
	if _, _, ok := b.takeIfTriggered(now, 1, 0); ok {
		t.Fatal("buffer re-triggered while a fine-tune was in flight")
	}
	b.tuneDone()
	got, _, ok = b.takeIfTriggered(now, 1, 0)
	if !ok {
		t.Fatal("buffer did not re-arm after tuneDone")
	}
	// The digest hands over the whole ring again (context anchor), with
	// the new sample last.
	if got[len(got)-1].ScaleOut != 7 {
		t.Fatalf("latest sample is scale-out %d, want 7", got[len(got)-1].ScaleOut)
	}
}

func TestBackgroundLoopSwaps(t *testing.T) {
	tl := &testLoader{t: t}
	svc := serve.NewService(tl.load, serve.Options{})
	ctl := New(svc.Registry(), Config{
		MinSamples: 4,
		Interval:   5 * time.Millisecond,
		Finetune:   core.FinetuneOptions{Strategy: core.StrategyPartialUnfreeze, MaxEpochs: 50, Patience: 50},
	})
	svc.AttachObserver(ctl)
	ctl.Start()
	defer ctl.Stop()

	key := serve.ModelKey{Job: "grep", Env: "c3o"}
	qs, truths := observedSamples()
	for i := 0; i < 4; i++ {
		if err := svc.Observe(context.Background(), key, qs[i], truths[i]); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := svc.Registry().Version(key); ok && v >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background loop never swapped a new version")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestStopIdempotentAndBeforeStart(t *testing.T) {
	tl := &testLoader{t: t}
	ctl := New(serve.NewRegistry(tl.load, 4), Config{})
	ctl.Stop() // never started: must not hang
	ctl.Stop() // and stays idempotent

	ctl2 := New(serve.NewRegistry(tl.load, 4), Config{Interval: time.Millisecond})
	ctl2.Start()
	ctl2.Stop()
	ctl2.Stop()
}

// TestLifecycleEvictionRaceHammer races observation-driven fine-tunes
// against LRU eviction pressure on a 1-slot registry, plus concurrent
// serving. Run under -race. The invariant: every fine-tune either
// installs onto the generation it derived from or is dropped — the
// counters must balance and serving must never fail.
func TestLifecycleEvictionRaceHammer(t *testing.T) {
	tl := &testLoader{t: t}
	svc := serve.NewService(tl.load, serve.Options{ModelCap: 1})
	ctl := New(svc.Registry(), Config{
		MinSamples: 2,
		Workers:    2,
		Finetune:   core.FinetuneOptions{Strategy: core.StrategyPartialUnfreeze, MaxEpochs: 10, Patience: 10},
	})
	svc.AttachObserver(ctl)
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	evictors := []serve.ModelKey{{Job: "grep"}, {Job: "sgd"}, {Job: "kmeans"}}
	qs, truths := observedSamples()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Eviction pressure: constantly pull other models through the
	// 1-slot registry so the tuned key keeps getting evicted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.Registry().Get(context.Background(), evictors[i%len(evictors)]); err != nil {
				t.Errorf("evictor Get: %v", err)
				return
			}
		}
	}()
	// Serving traffic on the tuned key.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if r := svc.Predict(context.Background(), key, qs[i%len(qs)]); r.Err != nil {
				t.Errorf("Predict: %v", r.Err)
				return
			}
		}
	}()
	// Observation + fine-tune cycles.
	for round := 0; round < 6; round++ {
		for i := 0; i < 2; i++ {
			j := (round*2 + i) % len(qs)
			if err := svc.Observe(context.Background(), key, qs[j], truths[j]); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
		ctl.RunOnce()
	}
	close(stop)
	wg.Wait()

	st := ctl.LifecycleStats()
	if st.Finetunes == 0 {
		t.Fatal("hammer ran no fine-tunes")
	}
	// With a loader that never fails, every fine-tune attempt reaches
	// the Finetune call, so the outcomes partition the attempts exactly
	// (pre-finetune failures would add errors without finetunes).
	if st.Swaps+st.SwapsSkipped+st.FinetuneErrors != st.Finetunes {
		t.Fatalf("counter imbalance: %+v", st)
	}
	// Serving still works after the dust settles.
	if r := svc.Predict(context.Background(), key, qs[0]); r.Err != nil {
		t.Fatalf("final Predict: %v", r.Err)
	}
}
