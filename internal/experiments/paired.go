package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
)

// A paired comparison answers "do these two methods predict
// differently?" the way a claim about trained models has to be settled:
// on the same targets, splits and model seeds for both, over many units,
// as the distribution of per-unit differences — not as two single-seed
// numbers whose gap may be the seed's.

// PairedStat summarizes the per-cell differences B − A of one metric.
type PairedStat struct {
	// N is the number of cells, MeanDiff the mean of B − A over them and
	// SD the differences' sample standard deviation.
	N        int
	MeanDiff float64
	SD       float64
	// Lower and Higher count the cells where B's value is below and
	// above A's; ties count for neither.
	Lower, Higher int
}

// Differs reports whether B's values are distinguishable from A's: the
// mean difference is more than three standard errors from zero, or every
// cell of at least eight moved the same way (a two-sided sign test below
// the 1 % level). Fewer than two cells have no standard error and never
// differ.
func (s PairedStat) Differs() bool {
	if s.N < 2 {
		return false
	}
	if math.Abs(s.MeanDiff) > 3*s.SD/math.Sqrt(float64(s.N)) {
		return true
	}
	return s.N >= 8 && (s.Lower == s.N || s.Higher == s.N)
}

// String formats the statistic as "mean ± sd, lower/higher of n".
func (s PairedStat) String() string {
	return fmt.Sprintf("%+.4g ± %.3g, B lower in %d and higher in %d of %d", s.MeanDiff, s.SD, s.Lower, s.Higher, s.N)
}

// A Metric reads one value off a row; ok is false when the row has none.
type Metric func(m Measurement) (v float64, ok bool)

// InterpMRE and ExtrapMRE are the relative errors at a split's
// interpolation and extrapolation test points.
func InterpMRE(m Measurement) (float64, bool) { return m.InterpRelErr, m.HasInterp }
func ExtrapMRE(m Measurement) (float64, bool) { return m.ExtraRelErr, m.HasExtra }

// Paired compares methods a and b of a table on metric. It pairs them on
// (unit, k) cells, each the mean of the metric over the cell's splits,
// and summarizes b's value minus a's over the cells where both have one.
func Paired(t Table, a, b Method, metric Metric) PairedStat {
	type cell struct {
		unit, k int
		method  Method
	}
	vals := map[cell][]float64{}
	var cells []cell
	for _, m := range t {
		if v, ok := metric(m); ok && (m.Method == a || m.Method == b) {
			c := cell{m.Unit, m.NumPoints, m.Method}
			vals[c] = append(vals[c], v)
			if m.Method == a && len(vals[c]) == 1 {
				cells = append(cells, c)
			}
		}
	}
	var s PairedStat
	var d []float64
	for _, c := range cells {
		if bv := vals[cell{c.unit, c.k, b}]; len(bv) > 0 {
			diff := Mean(bv) - Mean(vals[c])
			d = append(d, diff)
			switch {
			case diff < 0:
				s.Lower++
			case diff > 0:
				s.Higher++
			}
		}
	}
	s.N, s.MeanDiff, s.SD = len(d), Mean(d), Std(d)
	return s
}

// The methods of a paired plan's two arms.
const (
	ArmA Method = "arm-a"
	ArmB Method = "arm-b"
)

// PairedPlan compares two ways of building the pre-trained model on the
// target contexts cfg picks, as the cross-context experiment does. Each
// unit's two bases differ only in BuildFunc: both pre-train on the job's
// other contexts from one model seed, with a and with b. Runner ArmA
// fine-tunes (partial unfreeze) clones of a's model on every split, then
// ArmB those of b's. Paired(table, ArmA, ArmB, metric) compares the
// arms; run the plan with one worker when a BuildFunc sets process-wide
// state.
func PairedPlan(ds *dataset.Dataset, cfg Config, a, b BuildFunc) (Plan, error) {
	return contextUnits(ds, cfg, Unit{
		Model: cfg.Model, PointCounts: cfg.PointCounts, MaxSplits: cfg.MaxSplits,
		Bases: []Base{{Name: "a", Corpus: OtherContexts, Build: a}, {Name: "b", Corpus: OtherContexts, Build: b}},
		Runners: []Runner{
			{Method: ArmA, Base: "a", Strategy: core.StrategyPartialUnfreeze},
			{Method: ArmB, Base: "b", Strategy: core.StrategyPartialUnfreeze},
		},
	})
}
