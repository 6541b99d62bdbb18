package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 < q <= 1) of an ascending slice by
// nearest rank: the smallest element with at least q of the samples at
// or below it. An empty slice yields NaN.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count) without reordering the caller's slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailSupported reports whether n samples leave at least ten beyond
// the q-quantile, so a reported tail is never a single outlier.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9 // 1-0.9 is a hair under 0.1 in floating point
}

// roundStat is a timing metric reduced the way every timing in this
// benchmark is: the p50 of each round's samples, then the median of
// those p50s. A round that a noisy neighbour ruined moves one of the
// inputs of the outer median, not the result.
type roundStat struct {
	Value    float64 // median over rounds of the per-round p50
	RoundMin float64 // smallest per-round p50
	RoundMax float64 // largest per-round p50
	Samples  int     // samples over all rounds
	Tail     float64 // tailQ quantile of all samples pooled; NaN if too few
}

// inUnit converts samples to ascending multiples of unit.
func inUnit(samples []time.Duration, unit time.Duration) []float64 {
	s := make([]float64, len(samples))
	for i, d := range samples {
		s[i] = float64(d) / float64(unit)
	}
	sort.Float64s(s)
	return s
}

// p50 is the median of one round's samples, in units of unit.
func p50(samples []time.Duration, unit time.Duration) float64 {
	return quantile(inUnit(samples, unit), 0.5)
}

// reduceRounds computes a roundStat from per-round samples; rounds
// without samples are skipped. unit is the duration one reported unit
// stands for (time.Microsecond for "us"); tailQ is the percentile the
// diagnostics print beside the median.
func reduceRounds(rounds [][]time.Duration, unit time.Duration, tailQ float64) roundStat {
	var p50s, all []float64
	for _, r := range rounds {
		if len(r) == 0 {
			continue
		}
		s := inUnit(r, unit)
		p50s = append(p50s, quantile(s, 0.5))
		all = append(all, s...)
	}
	st := roundStat{Value: median(p50s), Samples: len(all), Tail: math.NaN()}
	if len(p50s) == 0 {
		return st
	}
	sort.Float64s(p50s)
	st.RoundMin, st.RoundMax = p50s[0], p50s[len(p50s)-1]
	if tailSupported(len(all), tailQ) {
		sort.Float64s(all)
		st.Tail = quantile(all, tailQ)
	}
	return st
}

// meanOf averages vals; NaN for none.
func meanOf(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
