package experiments

import (
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
)

// Method identifies one runtime model variant in the comparison.
type Method string

// Methods of the cross-context experiment (Fig. 5/6/7).
const (
	MethodNNLS            Method = "nnls"
	MethodBell            Method = "bell"
	MethodBellamyLocal    Method = "bellamy-local"
	MethodBellamyFiltered Method = "bellamy-filtered"
	MethodBellamyFull     Method = "bellamy-full"
)

// Methods of the cross-environment experiment (Fig. 8); the first two
// baselines and bellamy-local are shared with the list above.
const (
	MethodBellamyPartialUnfreeze Method = "bellamy-partial-unfreeze"
	MethodBellamyFullUnfreeze    Method = "bellamy-full-unfreeze"
	MethodBellamyPartialReset    Method = "bellamy-partial-reset"
	MethodBellamyFullReset       Method = "bellamy-full-reset"
)

// IsBellamy reports whether the method is a Bellamy variant (relevant for
// epoch statistics — baselines have no epochs).
func (m Method) IsBellamy() bool { return m != MethodNNLS && m != MethodBell }

// Measurement is one row of a Table: one method fitted on one split.
type Measurement struct {
	// Unit is the index of the row's unit in the Plan, Split the index of
	// the split among the unit's splits of NumPoints training points.
	Unit, Split int
	Job         string
	Context     string
	Method      Method
	NumPoints   int

	// HasInterp/HasExtra report which test points existed in the split.
	HasInterp, HasExtra bool
	InterpRelErr        float64
	InterpAbsErr        float64
	ExtraRelErr         float64
	ExtraAbsErr         float64

	// FitSeconds is the wall-clock time of Fit.
	FitSeconds float64
	// Epochs is the number of fine-tuning epochs (Bellamy only).
	Epochs int
	// Allocations are the row's allocation outcomes, one per deadline
	// factor, in a unit with DeadlineFactors.
	Allocations []Allocation
}

// Table is the long-format result of Run: one row per (unit, k, split,
// method).
type Table []Measurement

// runSplit fits the fresh predictor p on the split's training points
// and evaluates both test points. It returns ok=false when the fit fails.
func runSplit(p baselines.Predictor, sp Split) (Measurement, bool) {
	k := len(sp.Train)
	points := make([]baselines.Point, k)
	for i, e := range sp.Train {
		points[i] = baselines.Point{ScaleOut: e.ScaleOut, Runtime: e.RuntimeSec}
	}
	start := time.Now()
	if err := p.Fit(points); err != nil {
		return Measurement{}, false
	}
	m := Measurement{FitSeconds: time.Since(start).Seconds()}
	if cp, ok := p.(*core.ContextPredictor); ok && cp.Report != nil {
		m.Epochs = cp.Report.Epochs
	}
	test := func(e *dataset.Execution) (ok bool, relErr, absErr float64) {
		if e == nil {
			return false, 0, 0
		}
		pred, err := p.Predict(e.ScaleOut)
		if err != nil {
			return false, 0, 0
		}
		return true, RelErr(pred, e.RuntimeSec), AbsErr(pred, e.RuntimeSec)
	}
	m.HasInterp, m.InterpRelErr, m.InterpAbsErr = test(sp.Interp)
	m.HasExtra, m.ExtraRelErr, m.ExtraAbsErr = test(sp.Extra)
	return m, true
}
