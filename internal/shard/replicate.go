package shard

import (
	"bytes"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/serve"
)

// Model propagation between the shards of one process: a version
// installed on one shard is decoded and published on each peer.
// Convergence comes from the registries' version counters:
// Registry.Publish refuses any version not strictly newer than the
// resident one, so duplicate, reordered and concurrent broadcasts are
// all idempotent — a replica never moves backwards.

// replication holds the counters of an enabled propagation.
type replication struct {
	applied, stale, peerErrors atomic.Int64
}

// EnableReplication turns propagation on; until then Broadcast does
// nothing.
func (c *Cluster) EnableReplication() { c.repl.Store(&replication{}) }

// CloseReplication turns propagation off again.
func (c *Cluster) CloseReplication() { c.repl.Store(nil) }

// Broadcast publishes a freshly installed model version of shard `from`
// on every peer, each from its own decoding of blob, and drops the
// peer's memoized results of the version it replaces. It returns once
// every peer has applied or refused the version. The lifecycle
// controller's OnInstall hook is the caller: a hot swap on one shard
// becomes resident everywhere.
func (c *Cluster) Broadcast(from int, key serve.ModelKey, version uint64, blob []byte) {
	r := c.repl.Load()
	if r == nil {
		return
	}
	for _, n := range c.nodes {
		if n.ID == from {
			continue
		}
		m, err := core.Load(bytes.NewReader(blob))
		if err != nil {
			// The same bytes fail the same way for every peer; each keeps
			// serving the version it holds.
			r.peerErrors.Add(1)
			c.Obs().Logger().Warn("shard: decoding broadcast model",
				"from", from, "job", key.Job, "env", key.Env, "version", version, "error", err)
			return
		}
		if !n.Service.Registry().Publish(key, version, m) {
			r.stale.Add(1)
			continue
		}
		n.Service.InvalidateResults(key)
		r.applied.Add(1)
	}
}

// ReplicationStats snapshots the propagation counters, or nil when
// replication is not enabled.
func (c *Cluster) ReplicationStats() *api.ReplicationStats {
	r := c.repl.Load()
	if r == nil {
		return nil
	}
	return &api.ReplicationStats{
		Applied:    r.applied.Load(),
		Stale:      r.stale.Load(),
		PeerErrors: r.peerErrors.Load(),
	}
}
