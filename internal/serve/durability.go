package serve

import (
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/store"
)

// StoreStatser exposes the durable store's counters (implemented by
// *store.Store), surfaced in /v1/stats when a store is attached.
type StoreStatser interface {
	StoreStats() api.StoreStats
}

// CheckpointRecoverer recovers checkpointed model versions
// (implemented by *store.Store).
type CheckpointRecoverer interface {
	LoadCheckpoint(job, env string) (store.Checkpoint, bool, error)
}

// CheckpointLoader wraps a base Loader with checkpoint recovery: when
// the store holds a checkpoint for the key, the checkpointed model is
// published at the version it was installed as before the restart;
// otherwise (no checkpoint, or a corrupt one — already counted in the
// store stats) the base loader's model is published at version 1.
func CheckpointLoader(base Loader, cr CheckpointRecoverer) VersionedLoader {
	return func(key ModelKey) (*core.Model, uint64, error) {
		ck, ok, err := cr.LoadCheckpoint(key.Job, key.Env)
		if err == nil && ok {
			return ck.Model, ck.Version, nil
		}
		m, baseErr := base(key)
		return m, 1, baseErr
	}
}

// AttachStore surfaces a durable store's counters in the service stats
// (/v1/stats gains a "store" block). Attach before serving traffic.
func (s *Service) AttachStore(st StoreStatser) { s.storeRef.Store(&st) }

// storeStats snapshots the attached store's counters, nil without one.
func (s *Service) storeStats() *api.StoreStats {
	st := s.storeRef.Load()
	if st == nil {
		return nil
	}
	ds := (*st).StoreStats()
	return &ds
}
