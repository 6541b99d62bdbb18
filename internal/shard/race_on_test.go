//go:build race

package shard

// raceEnabled reports whether the race detector is active. Allocation
// pins are skipped under it: sync.Pool intentionally drops items in
// race mode, so pooled fast paths allocate there by design.
const raceEnabled = true
