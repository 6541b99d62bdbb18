package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/allocate"
	"repro/internal/baselines"
	"repro/internal/dataset"
)

// costPerNodeHour prices the allocation experiment's cost model. Regret
// is a ratio of two costs, so any positive price yields the same.
const costPerNodeHour = 1

// Allocation is the outcome of one fitted predictor's allocation
// decision at one SLO deadline.
type Allocation struct {
	// DeadlineFactor is the tightness of the SLO: the deadline is this
	// multiple of the context's best achievable mean runtime.
	DeadlineFactor float64
	// OracleFeasible reports whether any candidate met the deadline on
	// the ground-truth curve; violation accounting only covers these.
	OracleFeasible bool
	// Violated reports that the chosen configuration's true runtime
	// exceeds the deadline although the oracle had a feasible choice.
	Violated bool
	// Regret is the relative extra true cost of the chosen
	// configuration over the oracle's (0 = optimal), recorded when the
	// choice did not violate the SLO.
	Regret float64
}

// allocationScorer returns a function that scores a fitted predictor's
// allocation decisions in one context against its ground truth: the
// context's distinct scale-outs and the mean measured runtime at each.
// It sweeps the scale-outs through the allocation engine at each
// deadline factor; a factor whose allocation fails has no outcome.
func allocationScorer(execs []dataset.Execution, factors []float64) func(baselines.Predictor) []Allocation {
	candidates, runtime := dataset.ScaleOuts(execs), dataset.MeanRuntimeByScaleOut(execs)
	minTrue := math.Inf(1)
	for _, rt := range runtime {
		minTrue = min(minTrue, rt)
	}
	engine := allocate.NewEngine()
	return func(p baselines.Predictor) []Allocation {
		var out []Allocation
		for _, factor := range factors {
			deadline := factor * minTrue
			oracleCost, oracleOK := oracleChoice(candidates, runtime, deadline)
			req := allocate.Request{Candidates: candidates, DeadlineSec: deadline, CostPerNodeHour: costPerNodeHour}
			res, err := engine.Allocate(allocate.FromPointPredictor(p), req)
			if err != nil {
				continue
			}
			a := Allocation{DeadlineFactor: factor, OracleFeasible: oracleOK}
			if trueRT := runtime[res.Chosen.ScaleOut]; oracleOK {
				if trueRT > deadline {
					a.Violated = true
				} else {
					a.Regret = (cost(res.Chosen.ScaleOut, trueRT) - oracleCost) / oracleCost
				}
			}
			out = append(out, a)
		}
		return out
	}
}

func cost(scaleOut int, runtimeSec float64) float64 {
	return float64(scaleOut) * runtimeSec / 3600 * costPerNodeHour
}

// oracleChoice returns the cost of the cheapest candidate whose true
// runtime meets the deadline (feasible=false when none does).
func oracleChoice(candidates []int, runtime map[int]float64, deadline float64) (c float64, feasible bool) {
	for _, x := range candidates {
		if rt := runtime[x]; rt <= deadline && (!feasible || cost(x, rt) < c) {
			c, feasible = cost(x, rt), true
		}
	}
	return c, feasible
}

// FormatAllocationTable renders the allocation-quality comparison: per
// (job, method) the SLO-violation rate and the mean cost regret over
// splits, point counts and deadline factors where the oracle had a
// feasible configuration.
func FormatAllocationTable(t Table) string {
	byCell := map[cellKey][]Allocation{}
	var feasible Table
	for _, m := range t {
		for _, a := range m.Allocations {
			if k := (cellKey{Job: m.Job, Method: m.Method}); a.OracleFeasible {
				if byCell[k] == nil {
					feasible = append(feasible, m)
				}
				byCell[k] = append(byCell[k], a)
			}
		}
	}
	var b strings.Builder
	b.WriteString("Allocation quality — SLO-violation rate / mean cost regret\n")
	writeGrid(&b, "job", 10, 28, jobsPresent(feasible), methodsPresent(feasible), func(job string, m Method) string {
		as := byCell[cellKey{Job: job, Method: m}]
		if len(as) == 0 {
			return ""
		}
		violated, regrets := 0, []float64(nil)
		for _, a := range as {
			if a.Violated {
				violated++
			} else {
				regrets = append(regrets, a.Regret)
			}
		}
		viol := float64(violated) / float64(len(as))
		return fmt.Sprintf("   %6.1f%% / %8.1f%% (%3d)", viol*100, Mean(regrets)*100, len(as))
	})
	return b.String()
}
