package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/loadctl"
	"repro/internal/serve"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.PropertySize = 16
	cfg.EncodingDim = 3
	cfg.EncoderHidden = 6
	cfg.ScaleOutHidden = 8
	cfg.ScaleOutDim = 4
	cfg.PredictorHidden = 6
	cfg.PretrainEpochs = 25
	cfg.Seed = 7
	return cfg
}

func essentialProps(sizeMB int) []encoding.Property {
	return []encoding.Property{
		{Name: "dataset_size_mb", Value: strconv.Itoa(sizeMB)},
		{Name: "dataset_characteristics", Value: "uniform"},
		{Name: "job_parameters", Value: "--iterations 100"},
		{Name: "node_type", Value: "m4.xlarge"},
	}
}

func testQuery(scaleOut, sizeMB int) core.Query {
	return core.Query{
		ScaleOut:  scaleOut,
		Essential: essentialProps(sizeMB),
		Optional: []encoding.Property{
			{Name: "memory_mb", Value: "16384", Optional: true},
			{Name: "cpu_cores", Value: "4", Optional: true},
		},
	}
}

// pretrainedBytes serializes one tiny pre-trained model, memoized so
// every test shares a single training run.
var pretrainedBytes = func() func(t testing.TB) []byte {
	var once sync.Once
	var blob []byte
	return func(t testing.TB) []byte {
		once.Do(func() {
			m, err := core.New(testConfig())
			if err != nil {
				t.Fatalf("core.New: %v", err)
			}
			var samples []core.Sample
			for _, size := range []int{10000, 14000, 18000} {
				for x := 2; x <= 12; x += 2 {
					samples = append(samples, core.Sample{
						ScaleOut:   x,
						Essential:  essentialProps(size),
						Optional:   testQuery(x, size).Optional,
						RuntimeSec: 30 + 400/float64(x) + 1.2*float64(x),
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

func testModel(t testing.TB) *core.Model {
	t.Helper()
	m, err := core.Load(bytes.NewReader(pretrainedBytes(t)))
	if err != nil {
		t.Fatalf("core.Load: %v", err)
	}
	return m
}

// newTestCluster builds an N-shard cluster whose loader serves the
// shared pre-trained model for every key. gates may be nil for an
// ungated cluster.
func newTestCluster(t *testing.T, shards int, gates []*loadctl.Gate, opts Options) *Cluster {
	t.Helper()
	nodes := make([]NodeConfig, shards)
	for i := range nodes {
		nodes[i].Service = serve.NewService(func(key serve.ModelKey) (*core.Model, error) {
			return core.Load(bytes.NewReader(pretrainedBytes(t)))
		}, serve.Options{ModelCap: 64})
		if gates != nil {
			nodes[i].Gate = gates[i]
		}
	}
	c, err := New(nodes, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func shardKey(job string, i int) serve.ModelKey {
	return serve.ModelKey{Job: job, Env: fmt.Sprintf("env-%d", i)}
}

// keyOwnedBy finds a key the ring assigns to the wanted shard.
func keyOwnedBy(t *testing.T, c *Cluster, want int) serve.ModelKey {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := shardKey("sort", i)
		if c.Owner(k.Job, k.Env) == want {
			return k
		}
	}
	t.Fatalf("no key owned by shard %d in 10000 candidates", want)
	return serve.ModelKey{}
}

func TestClusterRoutesByOwner(t *testing.T) {
	c := newTestCluster(t, 4, nil, Options{})
	ctx := context.Background()
	keys := make([]serve.ModelKey, 12)
	for i := range keys {
		keys[i] = shardKey("sort", i)
		resp := c.Predict(ctx, serve.Request{Key: keys[i], Query: testQuery(4, 10000)})
		if resp.Err != nil {
			t.Fatalf("predict %v: %v", keys[i], resp.Err)
		}
	}
	// Each model must be resident on exactly its owner.
	for _, k := range keys {
		owner := c.Owner(k.Job, k.Env)
		for s := 0; s < c.Shards(); s++ {
			_, resident := c.Node(s).Service.Registry().ResidentVersions()[k]
			if resident != (s == owner) {
				t.Fatalf("key %v resident=%v on shard %d, owner is %d", k, resident, s, owner)
			}
		}
	}
}

func TestClusterBatchMergesInOrder(t *testing.T) {
	c := newTestCluster(t, 3, nil, Options{})
	ctx := context.Background()

	var reqs []serve.Request
	for i := 0; i < 9; i++ {
		reqs = append(reqs, serve.Request{Key: shardKey("sort", i), Query: testQuery(2+i, 10000)})
	}
	out, err := c.AdmitBatch(ctx, nil, reqs, nil)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(out) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(out), len(reqs))
	}
	for i, r := range out {
		if r.Err != nil || r.RuntimeSec <= 0 {
			t.Fatalf("response %d = %+v, want success", i, r)
		}
		// The merged slot must hold the answer for its own request:
		// re-asking the single-predict path (now cached) must agree.
		direct := c.Predict(ctx, reqs[i])
		if direct.RuntimeSec != r.RuntimeSec {
			t.Fatalf("response %d = %v, direct predict = %v: merge order broken", i, r.RuntimeSec, direct.RuntimeSec)
		}
	}
}

// TestClusterShedMidBatchPartialFailure: a shard whose gate sheds its
// share of a fanned-out batch answers overloaded for exactly its own
// items, one by one, while the other shard's items succeed and the
// merge counts one partial failure.
func TestClusterShedMidBatchPartialFailure(t *testing.T) {
	gates := []*loadctl.Gate{
		loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 4, MaxQueue: 16, MaxWait: 10 * time.Second}),
		loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 1, MaxQueue: 16, MaxWait: 10 * time.Millisecond}),
	}
	c := newTestCluster(t, 2, gates, Options{})
	k0 := keyOwnedBy(t, c, 0)
	k1 := keyOwnedBy(t, c, 1)

	// Hold shard 1's only slot, so its group waits out MaxWait and is shed.
	if !gates[1].TryAcquire() {
		t.Fatal("could not occupy shard 1's gate")
	}
	defer gates[1].Release()

	reqs := []serve.Request{
		{Key: k0, Query: testQuery(2, 10000)},
		{Key: k1, Query: testQuery(4, 10000)},
		{Key: k0, Query: testQuery(6, 10000)},
		{Key: k1, Query: testQuery(8, 10000)},
	}
	out, err := c.AdmitBatch(context.Background(), nil, reqs, nil) // fanned out: failures are per item
	if err != nil {
		t.Fatalf("fanned-out batch refused as a whole: %v", err)
	}
	for i, r := range out {
		if c.Owner(reqs[i].Key.Job, reqs[i].Key.Env) == 0 {
			if r.Err != nil || r.RuntimeSec <= 0 {
				t.Fatalf("item %d (open shard) = %+v, want success", i, r)
			}
			continue
		}
		var typed *api.Error
		if !asAPIError(r.Err, &typed) || typed.Code != api.CodeOverloaded {
			t.Fatalf("item %d (shedding shard) error = %v, want code %s", i, r.Err, api.CodeOverloaded)
		}
	}
	if got := c.Stats().Router.PartialFailures; got != 1 {
		t.Fatalf("partial failures = %d, want 1", got)
	}
}

// countObserver counts observations per shard service. A positive
// capacity refuses observations past it with the capacity sentinel, like
// the lifecycle controller's distinct-key bound.
type countObserver struct {
	n        atomic.Int64
	capacity int64
}

func (o *countObserver) Observe(_ context.Context, _ serve.ModelKey, _ core.Query, runtimeSec float64) error {
	if runtimeSec <= 0 {
		return fmt.Errorf("runtime must be positive")
	}
	if o.n.Add(1) > o.capacity && o.capacity > 0 {
		return fmt.Errorf("observer full: %w", serve.ErrObserveCapacity)
	}
	return nil
}

func TestClusterObserveRoutesToOwner(t *testing.T) {
	c := newTestCluster(t, 3, nil, Options{})
	obs := make([]*countObserver, c.Shards())
	for i := range obs {
		obs[i] = &countObserver{}
		c.Node(i).Service.AttachObserver(obs[i])
	}
	ctx := context.Background()
	want := make([]int64, c.Shards())
	for i := 0; i < 12; i++ {
		k := shardKey("grep", i)
		if err := c.AdmitObserve(ctx, k, testQuery(4, 10000), 55.5, nil); err != nil {
			t.Fatalf("observe %v: %v", k, err)
		}
		want[c.Owner(k.Job, k.Env)]++
	}
	for s := range obs {
		if got := obs[s].n.Load(); got != want[s] {
			t.Fatalf("shard %d saw %d observations, want %d", s, got, want[s])
		}
	}
}

// TestClusterReplicationEndToEnd: a version published on one shard
// becomes resident on every peer, and stale re-deliveries never move a
// replica backwards.
func TestClusterReplicationEndToEnd(t *testing.T) {
	c := newTestCluster(t, 3, nil, Options{})
	c.EnableReplication()
	defer c.CloseReplication()

	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	blob := pretrainedBytes(t)

	// Publish v2, then v3, on shard 0 and broadcast each.
	for _, v := range []uint64{2, 3} {
		if !c.Node(0).Service.Registry().Publish(key, v, testModel(t)) {
			t.Fatalf("publish v%d on shard 0 refused", v)
		}
		c.Broadcast(0, key, v, blob)
		for s := 1; s < 3; s++ {
			if got := c.Node(s).Service.Registry().ResidentVersions()[key]; got != v {
				t.Fatalf("shard %d holds v%d after the broadcast of v%d", s, got, v)
			}
		}
	}

	// A stale rebroadcast is refused everywhere: versions stay at 3.
	c.Broadcast(0, key, 2, blob)
	for s := 1; s < 3; s++ {
		if got := c.Node(s).Service.Registry().ResidentVersions()[key]; got != 3 {
			t.Fatalf("shard %d regressed to v%d after stale rebroadcast", s, got)
		}
	}
}

func asAPIError(err error, target **api.Error) bool {
	if err == nil {
		return false
	}
	if e, ok := err.(*api.Error); ok {
		*target = e
		return true
	}
	return false
}

// TestWarmPredictZeroAllocCluster pins the router's hot path: a cached
// prediction through Cluster.Predict — ring lookup, the owner's cache
// and its counters, gates attached — allocates nothing, whatever the
// shard count.
func TestWarmPredictZeroAllocCluster(t *testing.T) {
	for _, shards := range []int{1, 2} {
		gates := make([]*loadctl.Gate, shards)
		for i := range gates {
			gates[i] = loadctl.NewGate(loadctl.GateConfig{MaxInFlight: 4})
		}
		c := newTestCluster(t, shards, gates, Options{})
		ctx := context.Background()
		reqs := make([]serve.Request, shards)
		for i := range reqs {
			reqs[i] = serve.Request{Key: keyOwnedBy(t, c, i), Query: testQuery(4, 4096)}
			if r := c.Predict(ctx, reqs[i]); r.Err != nil {
				t.Fatalf("cold Predict: %v", r.Err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			for _, req := range reqs {
				if r := c.Predict(ctx, req); r.Err != nil || !r.Cached {
					t.Fatalf("warm Predict = %+v", r)
				}
			}
		}); allocs != 0 {
			t.Fatalf("warm predict over %d shards allocs/op = %v, want 0", shards, allocs)
		}
	}
}

// TestClusterDispatchAddsNoAllocs pins what routing costs on top of the
// owning service: an observation (no observer attached) and a miss on a
// resident model allocate through the router exactly what they allocate
// when asked of the owner's Service directly.
func TestClusterDispatchAddsNoAllocs(t *testing.T) {
	c := newTestCluster(t, 2, nil, Options{})
	ctx := context.Background()
	key := keyOwnedBy(t, c, 1)
	svc := c.Node(1).Service
	if r := c.Predict(ctx, serve.Request{Key: key, Query: testQuery(4, 4096)}); r.Err != nil {
		t.Fatalf("cold Predict: %v", r.Err)
	}

	q := testQuery(4, 4096)
	observe := func(call func() error) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := call(); !errors.Is(err, serve.ErrObserveDisabled) {
				t.Fatalf("observe = %v, want %v", err, serve.ErrObserveDisabled)
			}
		})
	}
	direct := observe(func() error { return svc.AdmitObserve(ctx, key, q, 10, nil) })
	routed := observe(func() error { return c.AdmitObserve(ctx, key, q, 10, nil) })
	if routed != direct {
		t.Fatalf("observe allocs/op: routed %v, service %v", routed, direct)
	}

	// Every call asks a query no earlier call asked, so each one misses.
	const runs = 100
	queries := make([]core.Query, 2*(runs+1))
	for i := range queries {
		queries[i] = testQuery(4, 5000+i)
	}
	next := 0
	miss := func(call func(serve.Request) serve.Response) float64 {
		return testing.AllocsPerRun(runs, func() {
			r := call(serve.Request{Key: key, Query: queries[next]})
			next++
			if r.Err != nil || r.Cached {
				t.Fatalf("miss = %+v", r)
			}
		})
	}
	direct = miss(func(req serve.Request) serve.Response { return svc.AdmitPredict(ctx, req, nil) })
	routed = miss(func(req serve.Request) serve.Response { return c.AdmitPredict(ctx, req, nil) })
	if routed != direct {
		t.Fatalf("miss allocs/op: routed %v, service %v", routed, direct)
	}
}
