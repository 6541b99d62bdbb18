package shard

import (
	"repro/internal/obs"
	"repro/internal/serve"
)

// AttachObs wires the shared observability layer into the router and,
// when a metrics registry is present, registers the router-level
// counters. The per-shard service metrics are registered
// separately by each shard's own Service.AttachObs with a distinct
// {shard="i"} label set, so a single registry scrape covers the whole
// cluster. Attach once, before serving traffic.
func (c *Cluster) AttachObs(o *serve.Observability) {
	c.obsRef.Store(o)
	if o == nil || o.Metrics == nil {
		return
	}
	c.registerMetrics(o.Metrics)
}

// Obs returns the attached observability layer, or nil.
func (c *Cluster) Obs() *serve.Observability { return c.obsRef.Load() }

func (c *Cluster) registerMetrics(reg *obs.Registry) {
	reg.RegisterCounter("bellamy_router_requests_total",
		"Individual requests routed by the shard router (batch items included).", nil, &c.requests)
	reg.RegisterCounter("bellamy_router_batch_fanouts_total",
		"Batches that fanned out to more than one shard.", nil, &c.batchFanouts)
	reg.RegisterCounter("bellamy_router_partial_failures_total",
		"Batches where some but not all items failed.", nil, &c.partialFailures)
	reg.RegisterCounterFunc("bellamy_router_rate_limited_total",
		"Requests answered 429 by the router's per-client rate limiter.", nil, c.rateLimited)
	reg.RegisterCounter("bellamy_router_deadline_rejects_total",
		"Requests answered 504 by the router because their budget ran out.", nil, &c.deadlineRejects)
	reg.RegisterGaugeFunc("bellamy_router_draining",
		"1 while the router's shutdown drain is in progress, else 0.", nil,
		func() float64 {
			if c.draining.Load() {
				return 1
			}
			return 0
		})
}
