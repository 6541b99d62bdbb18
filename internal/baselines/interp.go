package baselines

import (
	"fmt"
	"sort"
)

// Interpolator is a non-parametric model: it averages repeated
// observations per scale-out and interpolates linearly between the
// resulting knots, extrapolating with the slope of the outermost
// segment. It is the non-parametric half of the Bell hybrid.
type Interpolator struct {
	xs []float64 // sorted distinct scale-outs
	ys []float64 // mean runtime per scale-out
}

// NewInterpolator returns an unfitted interpolation model.
func NewInterpolator() *Interpolator { return &Interpolator{} }

// Bytes reports the memory the fitted knots hold.
func (ip *Interpolator) Bytes() int { return 8 * (cap(ip.xs) + cap(ip.ys)) }

// Fit implements Predictor.
func (ip *Interpolator) Fit(points []Point) error {
	if len(points) == 0 {
		return ErrNoData
	}
	sums := map[int]float64{}
	counts := map[int]int{}
	for _, p := range points {
		if p.ScaleOut <= 0 {
			return fmt.Errorf("baselines: interpolator: scale-out %d must be positive", p.ScaleOut)
		}
		sums[p.ScaleOut] += p.Runtime
		counts[p.ScaleOut]++
	}
	var xs []int
	for x := range sums {
		xs = append(xs, x)
	}
	sort.Ints(xs)
	ip.xs = ip.xs[:0]
	ip.ys = ip.ys[:0]
	for _, x := range xs {
		ip.xs = append(ip.xs, float64(x))
		ip.ys = append(ip.ys, sums[x]/float64(counts[x]))
	}
	return nil
}

// Predict implements Predictor.
func (ip *Interpolator) Predict(scaleOut int) (float64, error) {
	if len(ip.xs) == 0 {
		return 0, ErrNotFitted
	}
	x := float64(scaleOut)
	n := len(ip.xs)
	if n == 1 {
		return ip.ys[0], nil
	}
	// Locate the segment; clamp to the outermost segments for
	// extrapolation.
	i := sort.SearchFloat64s(ip.xs, x)
	switch {
	case i <= 0:
		i = 1
	case i >= n:
		i = n - 1
	}
	x0, x1 := ip.xs[i-1], ip.xs[i]
	y0, y1 := ip.ys[i-1], ip.ys[i]
	t := (x - x0) / (x1 - x0)
	y := y0 + t*(y1-y0)
	if y < 0 {
		y = 0
	}
	return y, nil
}
