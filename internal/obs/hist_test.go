package obs

import (
	"testing"
	"time"
)

// TestBucketRoundTrip: for representative values across the range,
// bucketValue(bucketIdx(v)) is <= v and within the layout's relative
// error bound.
func TestBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 31, 32, 33, 100, 1000, 1e6, 1e9, 1e12, 1 << 62}
	for _, v := range values {
		idx := bucketIdx(v)
		lo := bucketValue(idx)
		if lo > v {
			t.Fatalf("bucketValue(bucketIdx(%d)) = %d > input", v, lo)
		}
		if v >= subBuckets {
			// Relative error bounded by 1/subBuckets.
			if float64(v-lo) > float64(v)/float64(subBuckets)+1 {
				t.Fatalf("value %d mapped to bucket floor %d: error too large", v, lo)
			}
		} else if lo != v {
			t.Fatalf("small value %d must be exact, got %d", v, lo)
		}
	}
}

// TestBucketMonotonic: bucket index is non-decreasing in the value and
// bucket floors strictly increase with the index.
func TestBucketMonotonic(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<16; v += 7 {
		idx := bucketIdx(v)
		if idx < prev {
			t.Fatalf("bucketIdx not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
	// The final power-of-two row (2^63) overflows int64 floors; real
	// durations (~292y) never reach it, so the sweep stops short.
	for i := 1; i < numBuckets-subBuckets; i++ {
		if bucketValue(i) <= bucketValue(i-1) {
			t.Fatalf("bucketValue not strictly increasing at %d: %d <= %d",
				i, bucketValue(i), bucketValue(i-1))
		}
	}
}

func TestHistSumAndMean(t *testing.T) {
	h := NewHist()
	if h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty hist must report zero sum, mean, quantiles and max")
	}
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if got := h.Sum(); got != int64(40*time.Millisecond) {
		t.Fatalf("Sum = %d, want exact 40ms in ns", got)
	}
	if got := h.Mean(); got != 20*time.Millisecond {
		t.Fatalf("Mean = %v, want exact 20ms", got)
	}
	// Negative durations clamp to zero rather than corrupting the sum.
	h.Observe(-time.Second)
	if h.Sum() != int64(40*time.Millisecond) || h.Count() != 3 {
		t.Fatalf("negative observe: sum %d count %d", h.Sum(), h.Count())
	}
}

func TestHistQuantileBounds(t *testing.T) {
	h := NewHist()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 450*time.Microsecond || p50 > 550*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500us", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < 900*time.Microsecond || p999 > time.Millisecond {
		t.Fatalf("p999 = %v, want ~999us (never over-reporting)", p999)
	}
	if h.Max() > time.Millisecond || h.Max() < 960*time.Microsecond {
		t.Fatalf("Max = %v, want lower bound of the 1ms bucket", h.Max())
	}
}
