package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// HuberLoss is the Huber (smooth L1) loss used for the runtime term. For
// |d| <= Delta the loss is quadratic, beyond it linear, which damps the
// influence of outlier runtimes.
type HuberLoss struct {
	// Delta is the quadratic-to-linear transition point; PyTorch's
	// SmoothL1 default of 1.0 is used when zero.
	Delta float64
}

// Compute returns the mean loss over all elements of pred against
// target and its gradient w.r.t. pred. The gradient buffer comes from
// the caller's workspace (valid until its next Reset); a nil workspace
// allocates. Each element's error and gradient are taken in float64
// from the float32 operands and the gradient rounded once; the loss is
// summed in float64.
func (h HuberLoss) Compute(ws *mat.WorkspaceF32, pred, target *mat.DenseF32) (float64, *mat.DenseF32) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("nn: huber loss shape mismatch %dx%d vs %dx%d",
			pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	delta := h.Delta
	if delta == 0 {
		delta = 1
	}
	n := float64(len(pred.Data))
	grad := ws.GetRaw(pred.Rows, pred.Cols)
	var sum float64
	for i, p := range pred.Data {
		d := float64(p) - float64(target.Data[i])
		if math.Abs(d) <= delta {
			sum += 0.5 * d * d
			grad.Data[i] = float32(d / n)
		} else {
			sum += delta * (math.Abs(d) - 0.5*delta)
			grad.Data[i] = float32(math.Copysign(delta, d) / n)
		}
	}
	return sum / n, grad
}
