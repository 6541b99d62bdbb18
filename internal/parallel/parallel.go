// Package parallel spreads work over CPU cores at two grains, and keeps
// the two from oversubscribing the machine between them.
//
// ForEach and Map fan independent items (hyperparameter trials,
// cross-validation splits, the model groups of a serving batch) over a
// bounded number of goroutines; they replace the GPU/Ray-Tune
// parallelism of the paper's original setup. A Helper is the fine
// grain: one goroutine leased for the length of a computation that
// hands it a piece of work every few hundred microseconds — the second
// shard of every pre-training step — over a hand-off that polls rather
// than sleeps.
//
// Both draw on one process-wide budget of GOMAXPROCS-1 cores beyond
// their callers' own: ForEach takes what it can of its workers-1 for as
// long as it runs, Lease takes one or returns nil. So a lone
// pre-training gets the second core, and pre-trainings that already
// run one per core (hyperopt trials, experiment targets) get none and
// run their shards themselves — with the same result, since nothing a
// helper computes depends on who computed it.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for i in [0, n) using at most workers goroutines.
// workers <= 0 selects GOMAXPROCS. It blocks until all calls finish.
// Indices are claimed with an atomic counter, so uneven per-index costs
// (e.g. hyperopt trials of different epochs) balance across workers
// without lock contention. While it runs, its workers past the first
// count against the budget Lease draws on (the goroutines start either
// way; only helpers are refused).
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	defer unreserve(reserve(workers - 1))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn over [0, n) with bounded parallelism and collects results
// in order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}
