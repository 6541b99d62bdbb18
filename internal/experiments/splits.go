package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
)

// Split is one random sub-sampling cross-validation unit (§IV-C): a
// training set whose scale-outs are pairwise different, an interpolation
// test point whose scale-out lies within the range of the training
// points, and an extrapolation test point whose scale-out lies outside
// that range. A split may lack one of the test points when the context's
// scale-out grid makes it impossible (e.g. extrapolation when all
// scale-outs are in the training range).
type Split struct {
	Train []dataset.Execution
	// Interp / Extra are nil when no valid test point exists.
	Interp *dataset.Execution
	Extra  *dataset.Execution
}

// GenerateSplits draws up to maxSplits unique splits with k training
// points from a single context's executions. For k = 0 the training set
// is empty and both test points are unconstrained random picks (the
// zero-shot case only pre-trained models can exploit).
func GenerateSplits(execs []dataset.Execution, k, maxSplits int, rng *rand.Rand) ([]Split, error) {
	if len(execs) == 0 {
		return nil, fmt.Errorf("experiments: no executions to split")
	}
	if k < 0 {
		return nil, fmt.Errorf("experiments: negative training size %d", k)
	}
	distinct := dataset.ScaleOuts(execs)
	if k > len(distinct) {
		return nil, fmt.Errorf("experiments: k=%d exceeds %d distinct scale-outs", k, len(distinct))
	}
	byScale := dataset.GroupByScaleOut(execs)

	seen := map[string]bool{}
	var out []Split
	maxAttempts := maxSplits * 40
	for attempt := 0; attempt < maxAttempts && len(out) < maxSplits; attempt++ {
		sp, key, ok := drawSplit(byScale, distinct, k, rng)
		if !ok || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, sp)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no valid splits for k=%d", k)
	}
	return out, nil
}

func drawSplit(byScale map[int][]dataset.Execution, distinct []int, k int, rng *rand.Rand) (Split, string, bool) {
	// Choose k distinct scale-outs, then one repeat each.
	perm := rng.Perm(len(distinct))
	trainScales := make([]int, k)
	for i := 0; i < k; i++ {
		trainScales[i] = distinct[perm[i]]
	}
	sort.Ints(trainScales)

	var sp Split
	usedKey := make([]int, 0, k*2+4)
	used := map[[2]int]bool{} // (scaleOut, repeatIdx) already taken
	for _, s := range trainScales {
		reps := byScale[s]
		ri := rng.Intn(len(reps))
		sp.Train = append(sp.Train, reps[ri])
		used[[2]int{s, ri}] = true
		usedKey = append(usedKey, s, ri)
	}

	lo, hi := 0, 0
	if k > 0 {
		lo, hi = trainScales[0], trainScales[k-1]
	}

	// Interpolation test: scale-out within [lo, hi] (any point for k=0),
	// excluding the exact training records; extrapolation test: scale-out
	// strictly outside [lo, hi].
	var testKey [2]int
	sp.Interp, testKey = pickTest(byScale, distinct, used, rng, func(s int) bool { return k == 0 || s >= lo && s <= hi })
	usedKey = append(usedKey, testKey[:]...)
	sp.Extra, testKey = pickTest(byScale, distinct, used, rng, func(s int) bool { return k == 0 || s < lo || s > hi })
	usedKey = append(usedKey, testKey[:]...)

	if sp.Interp == nil && sp.Extra == nil {
		return sp, "", false
	}
	return sp, fmt.Sprint(usedKey), true
}

// pickTest selects a random execution whose scale-out satisfies accept
// and which is not one of the already used records, and returns it with
// its (scale-out, repeat) key; nil and {-1, -1} when there is none.
func pickTest(byScale map[int][]dataset.Execution, distinct []int, used map[[2]int]bool, rng *rand.Rand, accept func(int) bool) (*dataset.Execution, [2]int) {
	var candScales []int
	for _, s := range distinct {
		if accept(s) {
			candScales = append(candScales, s)
		}
	}
	rng.Shuffle(len(candScales), func(i, j int) { candScales[i], candScales[j] = candScales[j], candScales[i] })
	for _, s := range candScales {
		reps := byScale[s]
		start := rng.Intn(len(reps))
		for d := 0; d < len(reps); d++ {
			ri := (start + d) % len(reps)
			if used[[2]int{s, ri}] {
				continue
			}
			e := reps[ri]
			used[[2]int{s, ri}] = true
			return &e, [2]int{s, ri}
		}
	}
	return nil, [2]int{-1, -1}
}
