package shard

import (
	"bytes"

	"repro/internal/core"
	"repro/internal/serve"
)

// Model propagation between the shards of one process: a version
// installed on one shard is decoded and published on each peer. The
// serving path never broadcasts — a model version lives on the shard
// that owns its key, the only one the router sends that key to — so
// the benchmark ladder's shard.broadcast_apply_us rung is the one
// caller. Registry.Publish refuses any version not strictly newer than
// the resident one, so duplicate, reordered and concurrent broadcasts
// are all idempotent: a replica never moves backwards.

// EnableReplication turns propagation on; until then Broadcast does
// nothing.
func (c *Cluster) EnableReplication() { c.replicate.Store(true) }

// CloseReplication turns propagation off again.
func (c *Cluster) CloseReplication() { c.replicate.Store(false) }

// Broadcast publishes a model version installed on shard `from` on
// every peer, each from its own decoding of blob, and drops the peer's
// memoized results of the version it replaces. It returns once every
// peer has applied or refused the version.
func (c *Cluster) Broadcast(from int, key serve.ModelKey, version uint64, blob []byte) {
	if !c.replicate.Load() {
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
			c.Obs().Logger().Warn("shard: decoding broadcast model",
				"from", from, "job", key.Job, "env", key.Env, "version", version, "error", err)
			return
		}
		if n.Service.Registry().Publish(key, version, m) {
			n.Service.InvalidateResults(key)
		}
	}
}
