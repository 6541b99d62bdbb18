// Package experiments implements the evaluation harness of the paper
// (§IV-C): random sub-sampling cross-validation splits with
// interpolation and extrapolation test points, the MRE/MAE metrics, the
// epoch eCDFs, and the experiments behind every figure of §IV (Fig. 5,
// 6, 7, 8 and the training-time observations).
//
// Every experiment is a Plan that one engine runs. A Plan is a list of
// Units, one per target context. A unit names the bases it pre-trains,
// each a Corpus plus a BuildFunc, and its Runners: a baseline, a fresh
// local Bellamy model, or a fine-tune of a base under a core.Strategy.
// Run executes the units and returns a Table with one Measurement per
// (unit, k, split, method). The Format* functions print the paper's
// tables from a Table, and Paired compares any two of its methods.
//
// Seeds follow one rule. A plan constructor picks the targets of each
// job from the rng of its Config.Seed, then draws one seed per unit
// from it. A unit's rng, seeded with Unit.Seed, draws in this order:
// one model seed per distinct non-empty corpus, in the order the unit's
// bases first name them; one seed for the unit's fresh local models, if
// it has any; then the splits of each point count, in PointCounts order.
// Bases on the same corpus therefore share a model seed.
package experiments

import (
	"math"
	"sort"
)

// RelErr returns |pred-actual| / actual, the per-prediction relative
// error underlying the paper's MRE plots.
func RelErr(pred, actual float64) float64 {
	if actual == 0 {
		return math.Abs(pred)
	}
	return math.Abs(pred-actual) / math.Abs(actual)
}

// AbsErr returns |pred-actual| in seconds.
func AbsErr(pred, actual float64) float64 { return math.Abs(pred - actual) }

// Mean returns the arithmetic mean of vals (0 for empty input).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Std returns the sample standard deviation of vals.
func Std(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	m := Mean(vals)
	var sq float64
	for _, v := range vals {
		sq += (v - m) * (v - m)
	}
	return math.Sqrt(sq / float64(len(vals)-1))
}

// ECDF is an empirical cumulative distribution function over observed
// values (Fig. 7 plots these for trained epoch counts).
type ECDF struct {
	Values []float64 // sorted ascending
}

// NewECDF builds an eCDF from unsorted observations.
func NewECDF(vals []float64) *ECDF {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return &ECDF{Values: sorted}
}

// Quantile returns the smallest value v with P(X <= v) >= q.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.Values) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.Values[0]
	}
	idx := int(math.Ceil(q*float64(len(e.Values)))) - 1
	return e.Values[min(max(idx, 0), len(e.Values)-1)]
}
