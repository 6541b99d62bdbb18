package shard

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func residentVersion(c *Cluster, shard int, key serve.ModelKey) uint64 {
	v, _ := c.Node(shard).Service.Registry().Version(key)
	return v
}

// TestBroadcastNeverAppliesOlder: stale and duplicate deliveries are
// refused; the replica's version is monotone, and every applied version
// drops the memoized results of the one it replaces.
func TestBroadcastNeverAppliesOlder(t *testing.T) {
	c := newTestCluster(t, 2, nil, Options{})
	c.EnableReplication()
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	blob := pretrainedBytes(t)
	peer := c.Node(1).Service

	want := uint64(0)
	for _, v := range []uint64{3, 2, 3, 5} { // new, older, duplicate, newer
		if r := peer.Predict(context.Background(), key, testQuery(4, 10000)); r.Err != nil {
			t.Fatalf("predict on the peer: %v", r.Err)
		}
		c.Broadcast(0, key, v, blob)
		applied := v > want
		want = max(want, v)
		if got := residentVersion(c, 1, key); got != want {
			t.Fatalf("peer at v%d after the broadcast of v%d, want v%d", got, v, want)
		}
		if cached := peer.Stats().ResultCacheLen > 0; cached == applied {
			t.Fatalf("broadcast of v%d (applied %v) left the peer's memoized result cached=%v", v, applied, cached)
		}
	}
}

// TestBroadcastConcurrentFromTwoShards: two shards broadcasting
// interleaved versions of one key at the same time leave every shard
// that is a peer of the highest version holding it. Run under -race.
func TestBroadcastConcurrentFromTwoShards(t *testing.T) {
	c := newTestCluster(t, 3, nil, Options{})
	c.EnableReplication()
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	blob := pretrainedBytes(t)

	const rounds = 20
	var wg sync.WaitGroup
	for from := 0; from < 2; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				c.Broadcast(from, key, uint64(2*i+from), blob) // shard 1 sends the highest
			}
		}(from)
	}
	wg.Wait()
	const top = 2*rounds + 1
	for _, s := range []int{0, 2} {
		if got := residentVersion(c, s, key); got != top {
			t.Fatalf("shard %d holds v%d, want v%d", s, got, top)
		}
	}
	if got := residentVersion(c, 1, key); got != top-1 {
		t.Fatalf("shard 1 holds v%d, want its peer's highest v%d", got, top-1)
	}
}

// TestBroadcastOnlyWhileEnabled: before EnableReplication and after
// CloseReplication a broadcast reaches nobody.
func TestBroadcastOnlyWhileEnabled(t *testing.T) {
	c := newTestCluster(t, 2, nil, Options{})
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	blob := pretrainedBytes(t)

	c.Broadcast(0, key, 2, blob)
	if got := residentVersion(c, 1, key); got != 0 {
		t.Fatalf("before enabling: peer at v%d, want nothing", got)
	}
	c.EnableReplication()
	c.Broadcast(0, key, 2, blob)
	if got := residentVersion(c, 1, key); got != 2 {
		t.Fatalf("while enabled: peer at v%d, want v2", got)
	}
	c.CloseReplication()
	c.Broadcast(0, key, 3, blob)
	if got := residentVersion(c, 1, key); got != 2 {
		t.Fatalf("after closing: peer at v%d, want v2", got)
	}
}

// TestBroadcastCorruptBlob: a blob that does not decode leaves the
// resident version serving on every peer.
func TestBroadcastCorruptBlob(t *testing.T) {
	c := newTestCluster(t, 3, nil, Options{})
	c.EnableReplication()
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	blob := pretrainedBytes(t)
	c.Broadcast(0, key, 2, blob)

	corrupt := append([]byte(nil), blob[:len(blob)/2]...)
	c.Broadcast(0, key, 3, corrupt)
	for s := 1; s < 3; s++ {
		if got := residentVersion(c, s, key); got != 2 {
			t.Fatalf("shard %d at v%d after a corrupt broadcast, want v2", s, got)
		}
		if r := c.Node(s).Service.Predict(context.Background(), key, testQuery(4, 10000)); r.Err != nil {
			t.Fatalf("shard %d stopped serving after a corrupt broadcast: %v", s, r.Err)
		}
	}
}
