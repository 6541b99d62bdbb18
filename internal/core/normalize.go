package core

import (
	"math"
)

// MinMaxNormalizer scales features into (0, 1) per dimension using bounds
// determined during training and reused at inference (paper §IV-A).
type MinMaxNormalizer struct {
	Min, Max []float64
	fitted   bool
}

// FitMinMax determines bounds from the rows of data.
func FitMinMax(data [][]float64) *MinMaxNormalizer {
	n := &MinMaxNormalizer{}
	if len(data) == 0 {
		return n
	}
	dim := len(data[0])
	n.Min = make([]float64, dim)
	n.Max = make([]float64, dim)
	for j := 0; j < dim; j++ {
		n.Min[j] = math.Inf(1)
		n.Max[j] = math.Inf(-1)
	}
	for _, row := range data {
		for j, v := range row {
			n.Min[j] = math.Min(n.Min[j], v)
			n.Max[j] = math.Max(n.Max[j], v)
		}
	}
	n.fitted = true
	return n
}

// TransformInPlace rescales row in place. Values outside the training
// bounds extrapolate linearly beyond (0, 1), which is what lets a
// pre-trained model be probed at unseen scale-outs. An unfitted
// normalizer leaves row as is.
func (n *MinMaxNormalizer) TransformInPlace(row []float64) {
	if !n.fitted {
		return
	}
	for j, v := range row {
		span := n.Max[j] - n.Min[j]
		if span <= 0 {
			row[j] = 0.5
			continue
		}
		row[j] = (v - n.Min[j]) / span
	}
}

// Fitted reports whether bounds have been determined.
func (n *MinMaxNormalizer) Fitted() bool { return n.fitted }

// TargetScaler normalizes runtimes to a unit scale for the Huber loss and
// maps predictions back to seconds. The scale is fixed at pre-training
// time (mean runtime of the corpus) so fine-tuning stays calibrated.
type TargetScaler struct {
	Scale float64
}

// FitTargetScaler derives the scale from runtimes (mean); a zero or empty
// input falls back to scale 1.
func FitTargetScaler(runtimes []float64) *TargetScaler {
	if len(runtimes) == 0 {
		return &TargetScaler{Scale: 1}
	}
	var sum float64
	for _, r := range runtimes {
		sum += r
	}
	mean := sum / float64(len(runtimes))
	if mean <= 0 || math.IsNaN(mean) {
		mean = 1
	}
	return &TargetScaler{Scale: mean}
}

// ToScaled maps seconds to the loss space.
func (t *TargetScaler) ToScaled(seconds float64) float64 { return seconds / t.Scale }

// ToSeconds maps a model output back to seconds.
func (t *TargetScaler) ToSeconds(scaled float64) float64 { return scaled * t.Scale }

// ScaleOutFeatures crafts the paper's scale-out feature vector
// [1/x, log x, x] (§III-B).
func ScaleOutFeatures(scaleOut int) []float64 {
	out := make([]float64, 3)
	ScaleOutFeaturesInto(out, scaleOut)
	return out
}

// ScaleOutFeaturesInto writes the scale-out feature vector into dst
// (length 3) without allocating.
func ScaleOutFeaturesInto(dst []float64, scaleOut int) {
	x := float64(scaleOut)
	dst[0] = 1 / x
	dst[1] = math.Log(x)
	dst[2] = x
}
