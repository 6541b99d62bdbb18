package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// TestGenerateSplitsProperties checks the cross-validation protocol of
// §IV-C on simulator contexts of both environments, for k = 0..6: each
// split trains on k records of pairwise distinct scale-outs, tests
// interpolation inside and extrapolation strictly outside their range on
// records it did not train on, and no split repeats.
func TestGenerateSplitsProperties(t *testing.T) {
	const maxSplits = 25
	var contexts [][]dataset.Execution
	for _, ds := range []*dataset.Dataset{
		dataset.GenerateC3O(dataset.SimConfig{Seed: 3}),
		dataset.GenerateBell(dataset.SimConfig{Seed: 4}),
	} {
		for _, job := range ds.Jobs() {
			ctxs := ds.Contexts(job)
			for _, c := range ctxs[:min(2, len(ctxs))] {
				contexts = append(contexts, ds.ForContext(c.ID))
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, execs := range contexts {
		id := execs[0].Context.ID
		distinct := len(dataset.ScaleOuts(execs))
		for k := 0; k <= 6 && k <= distinct; k++ {
			splits, err := GenerateSplits(execs, k, maxSplits, rng)
			if err != nil {
				t.Fatalf("%s, k=%d: %v", id, k, err)
			}
			if len(splits) == 0 || len(splits) > maxSplits {
				t.Fatalf("%s, k=%d: %d splits, want 1..%d", id, k, len(splits), maxSplits)
			}
			seen := map[string]bool{}
			for _, sp := range splits {
				checkSplit(t, id, k, sp)
				key := fmt.Sprint(sp.Train, deref(sp.Interp), deref(sp.Extra))
				if seen[key] {
					t.Fatalf("%s, k=%d: split drawn twice: %s", id, k, key)
				}
				seen[key] = true
			}
		}
		for _, k := range []int{-1, distinct + 1} {
			if _, err := GenerateSplits(execs, k, maxSplits, rng); err == nil {
				t.Fatalf("%s: k=%d of %d distinct scale-outs accepted", id, k, distinct)
			}
		}
	}
}

func checkSplit(t *testing.T, id string, k int, sp Split) {
	t.Helper()
	if len(sp.Train) != k {
		t.Fatalf("%s, k=%d: %d training records", id, k, len(sp.Train))
	}
	if sp.Interp == nil && sp.Extra == nil {
		t.Fatalf("%s, k=%d: split without a test point", id, k)
	}
	var scales []int
	for _, e := range sp.Train {
		scales = append(scales, e.ScaleOut)
		for _, test := range []*dataset.Execution{sp.Interp, sp.Extra} {
			if test != nil && *test == e {
				t.Fatalf("%s, k=%d: test record %+v is a training record", id, k, *test)
			}
		}
	}
	if sp.Interp != nil && sp.Extra != nil && *sp.Interp == *sp.Extra {
		t.Fatalf("%s, k=%d: one record tests both interpolation and extrapolation", id, k)
	}
	if k == 0 {
		return
	}
	slices.Sort(scales)
	if len(slices.Compact(slices.Clone(scales))) != k {
		t.Fatalf("%s, k=%d: training scale-outs %v repeat", id, k, scales)
	}
	lo, hi := scales[0], scales[k-1]
	if sp.Interp != nil && (sp.Interp.ScaleOut < lo || sp.Interp.ScaleOut > hi) {
		t.Fatalf("%s, k=%d: interpolation scale-out %d outside [%d, %d]", id, k, sp.Interp.ScaleOut, lo, hi)
	}
	if sp.Extra != nil && sp.Extra.ScaleOut >= lo && sp.Extra.ScaleOut <= hi {
		t.Fatalf("%s, k=%d: extrapolation scale-out %d inside [%d, %d]", id, k, sp.Extra.ScaleOut, lo, hi)
	}
}

func deref(e *dataset.Execution) any {
	if e == nil {
		return nil
	}
	return *e
}
