package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear bucket layout: values below 2^subBits nanoseconds are
// exact; above that, each power of two is split into 2^subBits linear
// sub-buckets, bounding the relative quantization error at 1/2^subBits.
const (
	subBits    = 5
	subBuckets = 1 << subBits
	numBuckets = (64 - subBits + 1) * subBuckets
)

// Hist is a fixed-size log-linear histogram of durations (HDR-style:
// bounded memory, ~3% relative error at any magnitude). The zero value
// is NOT ready; use NewHist. Safe for concurrent Observe.
type Hist struct {
	counts []atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make([]atomic.Int64, numBuckets)}
}

func bucketIdx(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < subBuckets {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	shift := msb - subBits
	return (msb-subBits+1)*subBuckets + int((v>>shift)&(subBuckets-1))
}

// bucketValue is the lower bound of bucket idx, the value Quantile
// reports for ranks landing in it.
func bucketValue(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	b := idx/subBuckets - 1 + subBits
	off := int64(idx % subBuckets)
	return int64(1)<<b + off<<(b-subBits)
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIdx(int64(d))].Add(1)
	h.total.Add(1)
	h.sum.Add(int64(d))
}

// Count reports the number of observations.
func (h *Hist) Count() int64 { return h.total.Load() }

// Sum reports the exact total of all observed durations in nanoseconds
// (unquantized — summed before bucketing).
func (h *Hist) Sum() int64 { return h.sum.Load() }

// Mean is the exact arithmetic mean of observations, 0 when empty.
func (h *Hist) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the q-quantile (q in [0,1]) as a duration, 0 when
// the histogram is empty. The result is the lower bound of the bucket
// holding the rank, so it never over-reports.
func (h *Hist) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total-1))
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			return time.Duration(bucketValue(i))
		}
	}
	return time.Duration(bucketValue(numBuckets - 1))
}

// Max returns the lower bound of the highest occupied bucket.
func (h *Hist) Max() time.Duration {
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i].Load() > 0 {
			return time.Duration(bucketValue(i))
		}
	}
	return 0
}
