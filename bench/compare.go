package main

import (
	"fmt"
	"io"
	"strings"
)

// loadSet reads one side of a comparison: a comma-separated list of
// report files, the repeated runs of one commit.
func loadSet(arg string) ([]*Report, error) {
	var set []*Report
	for _, path := range strings.Split(arg, ",") {
		rep, err := loadReport(path)
		if err != nil {
			return nil, err
		}
		set = append(set, rep)
	}
	return set, nil
}

// setMetric is one end-to-end metric of one workload over a set of
// runs.
type setMetric struct {
	workload, name string
	bound          float64
	values         []float64
}

// collect gathers the end-to-end metrics of a set, in first-seen order,
// and reports whether every run of it was correct.
func collect(set []*Report) (metrics []*setMetric, correct map[string]bool) {
	index := map[string]*setMetric{}
	correct = map[string]bool{}
	for _, rep := range set {
		for i := range rep.Workloads {
			w := &rep.Workloads[i]
			if ok, seen := correct[w.Name]; !seen || ok {
				correct[w.Name] = w.Correct
			}
			for _, m := range w.Metrics {
				if m.Kind != kindE2E {
					continue
				}
				key := w.Name + "/" + m.Name
				sm, ok := index[key]
				if !ok {
					sm = &setMetric{workload: w.Name, name: m.Name, bound: m.Bound}
					index[key] = sm
					metrics = append(metrics, sm)
				}
				sm.values = append(sm.values, m.Value)
			}
		}
	}
	return metrics, correct
}

// compareSets prints, per workload and end-to-end metric, the median of
// set a, the median of set b, the relative difference and the bound, and
// returns how many metrics of b are worse than a by more than their
// bound. All end-to-end metrics are lower-is-better; error_rate has bound
// 0: any increase counts. A workload or metric present on only one side,
// and a run that failed its correctness checks, count as violations, so
// a benchmark that silently stopped measuring something cannot pass.
func compareSets(w io.Writer, a, b []*Report) int {
	violations := 0
	ma, correctA := collect(a)
	mb, correctB := collect(b)
	other := map[string]*setMetric{}
	for _, m := range mb {
		other[m.workload+"/"+m.name] = m
	}
	for name, ok := range correctA {
		if okB, seen := correctB[name]; !seen {
			fmt.Fprintf(w, "%-13s missing from the second set\n", name)
			violations++
		} else if !ok || !okB {
			fmt.Fprintf(w, "%-13s a correctness check failed (a correct: %v, b correct: %v)\n", name, ok, okB)
			violations++
		}
	}
	for name := range correctB {
		if _, seen := correctA[name]; !seen {
			fmt.Fprintf(w, "%-13s missing from the first set\n", name)
			violations++
		}
	}
	fmt.Fprintf(w, "%-13s %-24s %14s %14s %9s %7s  (medians of %d and %d runs)\n", "workload", "metric", "a", "b", "diff", "bound", len(a), len(b))
	for _, x := range ma {
		if _, seen := correctB[x.workload]; !seen {
			continue // already counted as a missing workload
		}
		y, ok := other[x.workload+"/"+x.name]
		if !ok {
			fmt.Fprintf(w, "%-13s %-24s missing from the second set\n", x.workload, x.name)
			violations++
			continue
		}
		va, vb := median(x.values), median(y.values)
		diff := 0.0
		switch {
		case va != 0:
			diff = (vb - va) / va
		case vb > 0:
			diff = 1 // from zero to something: as bad as it gets
		}
		verdict := ""
		if diff > x.bound {
			verdict = "  WORSE"
			violations++
		}
		fmt.Fprintf(w, "%-13s %-24s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
			x.workload, x.name, va, vb, 100*diff, 100*x.bound, verdict)
	}
	return violations
}
