package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// cellKey identifies an aggregation cell.
type cellKey struct {
	Job       string
	Method    Method
	NumPoints int
}

// cells buckets the metric's values by (job, method, numPoints), or by
// (job, method) across all point counts — the aggregation behind Fig. 6
// and Fig. 8 — when byPoints is false.
func cells(t Table, byPoints bool, metric Metric) map[cellKey][]float64 {
	out := map[cellKey][]float64{}
	for _, m := range t {
		if v, ok := metric(m); ok {
			k := cellKey{Job: m.Job, Method: m.Method}
			if byPoints {
				k.NumPoints = m.NumPoints
			}
			out[k] = append(out[k], v)
		}
	}
	return out
}

// MethodOrder fixes the column order of reports.
var MethodOrder = []Method{
	MethodNNLS, MethodBell,
	MethodBellamyLocal, MethodBellamyFiltered, MethodBellamyFull,
	MethodBellamyPartialUnfreeze, MethodBellamyFullUnfreeze,
	MethodBellamyPartialReset, MethodBellamyFullReset,
}

// methodsPresent returns MethodOrder restricted to the table's methods.
func methodsPresent(t Table) []Method {
	seen := distinct(t, func(m Measurement) Method { return m.Method })
	return slices.DeleteFunc(slices.Clone(MethodOrder), func(m Method) bool { return !slices.Contains(seen, m) })
}

func jobsPresent(t Table) []string { return distinct(t, func(m Measurement) string { return m.Job }) }

// distinct returns the sorted distinct values of f over the table.
func distinct[T cmp.Ordered](t Table, f func(Measurement) T) []T {
	var out []T
	for _, m := range t {
		out = append(out, f(m))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// writeGrid writes a header of the methods, each column width wide, then
// a line per row: its label, then each method's cell as cell renders it,
// or "-" where cell returns "".
func writeGrid[R any](b *strings.Builder, corner string, labelWidth, width int, rows []R, methods []Method, cell func(R, Method) string) {
	fmt.Fprintf(b, "%*s", labelWidth, corner)
	for _, m := range methods {
		fmt.Fprintf(b, " %*s", width, m)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(b, "%*v", labelWidth, r)
		for _, m := range methods {
			if s := cell(r, m); s != "" {
				b.WriteString(s)
			} else {
				fmt.Fprintf(b, " %*s", width, "-")
			}
		}
		b.WriteByte('\n')
	}
}

// FormatMRETable renders the Fig. 5 style table: mean relative errors per
// (job, #points, method) for either interpolation or extrapolation.
func FormatMRETable(t Table, extrapolation bool) string {
	task, metric := "interpolation", Metric(InterpMRE)
	if extrapolation {
		task, metric = "extrapolation", ExtrapMRE
	}
	byCell := cells(t, true, metric)
	methods := methodsPresent(t)
	points := distinct(t, func(m Measurement) int { return m.NumPoints })

	var b strings.Builder
	fmt.Fprintf(&b, "MRE (%s) per job, #points, method\n", task)
	for _, job := range jobsPresent(t) {
		fmt.Fprintf(&b, "\n%s\n", job)
		writeGrid(&b, "#points", 8, 24, points, methods, func(k int, m Method) string {
			if vals := byCell[cellKey{job, m, k}]; len(vals) > 0 {
				return fmt.Sprintf(" %18.3f (%3d)", Mean(vals), len(vals))
			}
			return ""
		})
	}
	return b.String()
}

// FormatMAETable renders the Fig. 6 / Fig. 8 style table: interpolation
// MAE in seconds per (job, method), aggregated over splits, contexts and
// point counts.
func FormatMAETable(t Table, title string) string {
	byCell := cells(t, false, func(m Measurement) (float64, bool) { return m.InterpAbsErr, m.HasInterp })
	var b strings.Builder
	fmt.Fprintf(&b, "%s — interpolation MAE [s]\n", title)
	writeGrid(&b, "job", 10, 24, jobsPresent(t), methodsPresent(t), func(job string, m Method) string {
		if vals := byCell[cellKey{Job: job, Method: m}]; len(vals) > 0 {
			return fmt.Sprintf(" %12.1f ± %8.1f", Mean(vals), Std(vals))
		}
		return ""
	})
	return b.String()
}

// FormatEpochECDF renders the Fig. 7 style summary: quantiles of the
// fine-tuning epoch distribution per (job, Bellamy variant).
func FormatEpochECDF(t Table) string {
	byCell := cells(t, false, func(m Measurement) (float64, bool) {
		return float64(m.Epochs), m.Method.IsBellamy() && m.Epochs > 0
	})
	methods := methodsPresent(t)
	quantiles := []float64{0.25, 0.5, 0.75, 0.9, 1.0}

	var b strings.Builder
	b.WriteString("Fine-tuning epochs eCDF quantiles per job and Bellamy variant\n")
	for _, job := range jobsPresent(t) {
		fmt.Fprintf(&b, "\n%s\n%26s", job, "quantile")
		for _, q := range quantiles {
			fmt.Fprintf(&b, " %8.0f%%", q*100)
		}
		b.WriteByte('\n')
		for _, m := range methods {
			epochs := byCell[cellKey{Job: job, Method: m}]
			if len(epochs) == 0 {
				continue
			}
			e := NewECDF(epochs)
			fmt.Fprintf(&b, "%26s", m)
			for _, q := range quantiles {
				fmt.Fprintf(&b, " %9.0f", e.Quantile(q))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FormatFitTimes renders the §IV-C fit-time comparison: mean wall-clock
// Fit milliseconds per method, across all jobs, to three significant
// digits.
func FormatFitTimes(t Table) string {
	agg := map[Method][]float64{}
	for _, m := range t {
		agg[m.Method] = append(agg[m.Method], m.FitSeconds)
	}
	var b strings.Builder
	b.WriteString("Mean time to fit per method [ms]\n")
	for _, m := range MethodOrder {
		vals := agg[m]
		if len(vals) == 0 {
			continue
		}
		ms := Mean(vals) * 1e3
		decimals := 0
		if ms > 0 {
			decimals = max(0, 2-int(math.Floor(math.Log10(ms))))
		}
		fmt.Fprintf(&b, "%26s %10.*f (n=%d)\n", m, decimals, ms, len(vals))
	}
	return b.String()
}
