package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing must be NaN")
	}
}

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median odd = %v, want 5", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

// A round ruined by a noisy neighbour must move one input of the outer
// median, not the reported value.
func TestReduceRoundsDiscardsABadRound(t *testing.T) {
	us := func(vals ...int) []time.Duration {
		out := make([]time.Duration, len(vals))
		for i, v := range vals {
			out[i] = time.Duration(v) * time.Microsecond
		}
		return out
	}
	rounds := [][]time.Duration{
		us(100, 110, 120),         // p50 110
		us(101, 111, 121),         // p50 111
		us(900, 1800, 2700, 3600), // the bad round: p50 1800
		nil,                       // a round without samples is skipped
		us(99, 109, 119),          // p50 109
		us(102, 112, 122),         // p50 112
	}
	st := reduceRounds(rounds, time.Microsecond, 0.99)
	if st.Value != 111 {
		t.Errorf("value = %v, want the median 111 of the round p50s", st.Value)
	}
	if st.RoundMin != 109 || st.RoundMax != 1800 {
		t.Errorf("round spread = %v..%v, want 109..1800", st.RoundMin, st.RoundMax)
	}
	if st.Samples != 16 {
		t.Errorf("samples = %d, want 16", st.Samples)
	}
	if !math.IsNaN(st.Tail) {
		t.Errorf("tail = %v: 16 samples cannot support a p99", st.Tail)
	}
}

func TestReduceRoundsTailNeedsTenSamplesBeyond(t *testing.T) {
	if tailSupported(999, 0.99) || !tailSupported(1000, 0.99) || !tailSupported(100, 0.9) || tailSupported(99, 0.9) {
		t.Fatal("a tail percentile needs ten samples beyond it")
	}
	round := make([]time.Duration, 1000)
	for i := range round {
		round[i] = time.Duration(i+1) * time.Millisecond
	}
	st := reduceRounds([][]time.Duration{round}, time.Millisecond, 0.99)
	if st.Tail != 990 || st.Value != 500 {
		t.Errorf("p99 = %v, p50 = %v, want 990 and 500", st.Tail, st.Value)
	}
	if empty := reduceRounds(nil, time.Millisecond, 0.99); !math.IsNaN(empty.Value) || empty.Samples != 0 {
		t.Errorf("no rounds must reduce to NaN, got %+v", empty)
	}
}
