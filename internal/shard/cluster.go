package shard

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/allocate"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/freelist"
	"repro/internal/loadctl"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Node is one shard of the cluster: a complete serve.Service, whose
// LoadControl holds the shard's own admission gate.
type Node struct {
	ID      int
	Service *serve.Service
}

// NodeConfig describes one shard handed to New.
type NodeConfig struct {
	Service *serve.Service
	// Gate is the shard's admission gate, nil for none. New attaches it
	// to Service as its LoadControl.Gate: a shard admits where it works,
	// so a hot shard sheds load without throttling its siblings.
	Gate *loadctl.Gate
}

// Options tunes a Cluster.
type Options struct {
	// Limiter rate-limits per client at the router, before any body is
	// read or any shard is touched. Nil disables rate limiting.
	Limiter *loadctl.Limiter
}

// Cluster routes the /v1 surface across N shards: single predictions,
// allocations and observations go to the owner of their (job, env) key,
// and batches fan out per owning shard and merge in input order. A
// key's models — the base one and every fine-tuned version — live on
// its owner alone. It is a serve.Backend: what it adds to its shards'
// services is the ring and the router counters.
type Cluster struct {
	ring  *Ring
	nodes []*Node
	opts  Options

	draining atomic.Bool

	requests        obs.Counter
	batchFanouts    obs.Counter
	partialFailures obs.Counter
	deadlineRejects obs.Counter

	obsRef    atomic.Pointer[serve.Observability]
	replicate atomic.Bool

	fanouts *freelist.List[*fanout]
}

// New assembles a cluster over the given shards. At least one shard is
// required; a one-shard cluster is a valid (if pointless) degenerate
// case that routes everything to shard 0.
func New(nodes []NodeConfig, opts Options) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: cluster needs at least one node")
	}
	c := &Cluster{ring: NewRing(len(nodes), DefaultVirtualNodes), opts: opts}
	c.fanouts = freelist.New(func() *fanout {
		n := len(nodes)
		return &fanout{idxs: make([][]int, n), subs: make([][]serve.Request, n), outs: make([][]serve.Response, n)}
	}, maxIdleFanout)
	for i, nc := range nodes {
		if nc.Service == nil {
			return nil, fmt.Errorf("shard: node %d has no service", i)
		}
		if nc.Gate != nil {
			lc := nc.Service.LoadControl()
			if lc.Gate != nil {
				return nil, fmt.Errorf("shard: node %d's service already has an admission gate", i)
			}
			lc.Gate = nc.Gate
			nc.Service.AttachLoadControl(lc)
		}
		c.nodes = append(c.nodes, &Node{ID: i, Service: nc.Service})
	}
	return c, nil
}

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.nodes) }

// Owner maps a (job, env) key to its owning shard ID.
func (c *Cluster) Owner(job, env string) int { return c.ring.Owner(job, env) }

// Node returns shard i's node.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

func (c *Cluster) owner(key serve.ModelKey) *Node { return c.nodes[c.ring.Owner(key.Job, key.Env)] }

// SetDraining flips drain mode on the router and every shard.
func (c *Cluster) SetDraining(v bool) {
	c.draining.Store(v)
	for _, n := range c.nodes {
		n.Service.SetDraining(v)
	}
}

// Draining reports whether shutdown drain has started.
func (c *Cluster) Draining() bool { return c.draining.Load() }

// LoadControl implements serve.Backend: the router's limiter. The
// gates are the shards' own.
func (c *Cluster) LoadControl() serve.LoadControl {
	return serve.LoadControl{Limiter: c.opts.Limiter}
}

// CountDeadlineReject implements serve.Backend.
func (c *Cluster) CountDeadlineReject() { c.deadlineRejects.Add(1) }

// dispatch runs call against the node's service on the request's own
// context and records it as a shard_route span tagged with the shard
// ID, under which the service's own stages nest.
func (n *Node) dispatch(ctx context.Context, tr *obs.Trace, call func(ctx context.Context) error) error {
	t0 := tr.Clock()
	err := call(ctx)
	tr.Record(obs.StageShardRoute, n.ID, t0)
	return err
}

// Predict is AdmitPredict without a trace.
func (c *Cluster) Predict(ctx context.Context, req serve.Request) serve.Response {
	return c.AdmitPredict(ctx, req, nil)
}

// AdmitPredict routes one prediction to the owner of its key.
func (c *Cluster) AdmitPredict(ctx context.Context, req serve.Request, tr *obs.Trace) serve.Response {
	c.requests.Add(1)
	n := c.owner(req.Key)
	var resp serve.Response
	n.dispatch(ctx, tr, func(ctx context.Context) error {
		resp = n.Service.AdmitPredict(ctx, req, tr)
		return resp.Err
	})
	return resp
}

// fanout is the working memory of one AdmitBatch, per shard: the batch
// positions the shard owns — the merge plan that restores input order —
// the requests at those positions and the shard's answers to them. It
// comes from a free list, so a steady stream of batches reuses one set
// of lists.
type fanout struct {
	idxs [][]int
	subs [][]serve.Request
	outs [][]serve.Response
}

// maxIdleFanout is the most a fanout may hold and still go back to the
// list: one that grew for a giant batch is dropped instead of pinning
// that memory. A 1024-item batch split over two shards holds about
// 0.15 MB.
const maxIdleFanout = 256 << 10

// Reset empties f, zeroing what could pin a request's strings or errors.
func (f *fanout) Reset() {
	for sid := range f.idxs {
		f.idxs[sid] = f.idxs[sid][:0]
		clear(f.subs[sid])
		f.subs[sid] = f.subs[sid][:0]
		clear(f.outs[sid])
		f.outs[sid] = f.outs[sid][:0]
	}
}

// Bytes reports what f's lists hold, by capacity.
func (f *fanout) Bytes() int {
	n := 0
	for sid := range f.idxs {
		n += cap(f.idxs[sid])*int(unsafe.Sizeof(int(0))) +
			cap(f.subs[sid])*int(unsafe.Sizeof(serve.Request{})) +
			cap(f.outs[sid])*int(unsafe.Sizeof(serve.Response{}))
	}
	return n
}

// IdleFanoutBytes reports what the fanouts idle on the cluster's list
// hold.
func (c *Cluster) IdleFanoutBytes() int { return c.fanouts.IdleBytes() }

// AdmitBatch fans a batch out to the owning shards in parallel, one
// shard_route span each, and merges the per-shard answers back into
// input order, in dst's storage when it has the capacity. A batch that
// lives on one shard is that shard's to refuse as a whole, as a lone
// service would; once it fans out, a shard that sheds its share
// contributes typed errors for exactly its own items and the rest of
// the batch completes normally.
func (c *Cluster) AdmitBatch(ctx context.Context, dst []serve.Response, reqs []serve.Request, tr *obs.Trace) ([]serve.Response, error) {
	c.requests.Add(int64(len(reqs)))
	if len(reqs) == 0 {
		return []serve.Response{}, nil
	}
	fan := c.fanouts.Get()
	defer c.fanouts.Put(fan)
	shards := 0
	for i, r := range reqs {
		sid := c.ring.Owner(r.Key.Job, r.Key.Env)
		if len(fan.idxs[sid]) == 0 {
			shards++
		}
		fan.idxs[sid] = append(fan.idxs[sid], i)
	}
	var out []serve.Response
	if shards == 1 {
		var err error
		if out, err = c.batchOn(ctx, c.owner(reqs[0].Key), dst, reqs, tr); err != nil {
			return nil, err
		}
	} else {
		c.batchFanouts.Add(1)
		// Every position belongs to one shard, which overwrites it.
		out = slices.Grow(dst[:0], len(reqs))[:len(reqs)]
		var wg sync.WaitGroup
		for sid, idxs := range fan.idxs {
			if len(idxs) == 0 {
				continue
			}
			wg.Add(1)
			go func(sid int, idxs []int) {
				defer wg.Done()
				sub := fan.subs[sid]
				for _, i := range idxs {
					sub = append(sub, reqs[i])
				}
				fan.subs[sid] = sub
				rs, err := c.batchOn(ctx, c.nodes[sid], fan.outs[sid], sub, tr)
				for j, i := range idxs {
					if err != nil {
						out[i] = serve.Response{Err: err}
					} else {
						out[i] = rs[j]
					}
				}
				if err == nil {
					fan.outs[sid] = rs
				}
			}(sid, idxs)
		}
		wg.Wait()
	}
	failed := 0
	for i := range out {
		if out[i].Err != nil {
			failed++
		}
	}
	if failed > 0 && failed < len(out) {
		c.partialFailures.Add(1)
	}
	return out, nil
}

func (c *Cluster) batchOn(ctx context.Context, n *Node, dst []serve.Response, sub []serve.Request, tr *obs.Trace) ([]serve.Response, error) {
	var rs []serve.Response
	err := n.dispatch(ctx, tr, func(ctx context.Context) (err error) {
		rs, err = n.Service.AdmitBatch(ctx, dst, sub, tr)
		return err
	})
	return rs, err
}

// AdmitObserve forwards an observation to the owner of its key, so each
// shard's lifecycle controller and WAL see exactly the observations of
// the models it serves.
func (c *Cluster) AdmitObserve(ctx context.Context, key serve.ModelKey, q core.Query, runtimeSec float64, tr *obs.Trace) error {
	c.requests.Add(1)
	n := c.owner(key)
	return n.dispatch(ctx, tr, func(ctx context.Context) error {
		return n.Service.AdmitObserve(ctx, key, q, runtimeSec, tr)
	})
}

// AdmitAllocate forwards an allocation request to the owner of its key.
func (c *Cluster) AdmitAllocate(ctx context.Context, key serve.ModelKey, req allocate.Request, tr *obs.Trace) (*allocate.Result, error) {
	c.requests.Add(1)
	n := c.owner(key)
	var res *allocate.Result
	err := n.dispatch(ctx, tr, func(ctx context.Context) (err error) {
		res, err = n.Service.AdmitAllocate(ctx, key, req, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// StatsBody implements serve.Backend.
func (c *Cluster) StatsBody() any { return c.Stats() }

// rateLimited counts the requests the router's limiter answered 429.
func (c *Cluster) rateLimited() int64 {
	if c.opts.Limiter == nil {
		return 0
	}
	return c.opts.Limiter.Stats().Limited
}

// Stats snapshots the whole cluster as the body of GET /v1/stats: the
// router's counters and each shard's service stats.
func (c *Cluster) Stats() api.ClusterStats {
	out := api.ClusterStats{
		SchemaVersion: api.StatsSchemaVersion,
		Router: api.RouterStats{
			Requests:        c.requests.Load(),
			BatchFanouts:    c.batchFanouts.Load(),
			PartialFailures: c.partialFailures.Load(),
			RateLimited:     c.rateLimited(),
			DeadlineRejects: c.deadlineRejects.Load(),
		},
	}
	for _, n := range c.nodes {
		out.Shards = append(out.Shards, api.ShardStats{
			ID:    n.ID,
			Stats: n.Service.Stats(),
		})
	}
	return out
}

// Topology snapshots the ring and per-shard resident models, the body
// of GET /v1/shards.
func (c *Cluster) Topology() api.TopologyResponse {
	out := api.TopologyResponse{
		SchemaVersion: api.StatsSchemaVersion,
		VirtualNodes:  c.ring.VirtualNodes(),
	}
	for _, n := range c.nodes {
		info := api.ShardInfo{ID: n.ID}
		resident := n.Service.Registry().ResidentVersions()
		for key, v := range resident {
			info.Models = append(info.Models, api.ModelVersion{Job: key.Job, Env: key.Env, Version: v})
		}
		sort.Slice(info.Models, func(i, j int) bool {
			a, b := info.Models[i], info.Models[j]
			if a.Job != b.Job {
				return a.Job < b.Job
			}
			return a.Env < b.Env
		})
		out.Shards = append(out.Shards, info)
	}
	return out
}
