package shard

import (
	"net/http"

	"repro/internal/api"
	"repro/internal/serve"
)

// Handler returns the sharded /v1 surface: serve.NewHandler over the
// cluster — the pipeline a lone serve.Service answers through, so
// clients cannot tell one shard from eight — plus GET /v1/shards, the
// topology endpoint.
func (c *Cluster) Handler() http.Handler {
	mux := serve.NewHandler(c)
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, c.Topology())
	})
	return mux
}
