package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Loss computes a scalar loss and the gradient of the mean loss with
// respect to the prediction matrix. The gradient buffer comes from the
// caller's workspace (valid until its next Reset); a nil workspace
// allocates.
type Loss interface {
	Name() string
	// Compute returns the mean loss over all elements and dLoss/dPred.
	Compute(ws *mat.Workspace, pred, target *mat.Dense) (float64, *mat.Dense)
}

// MSELoss is the mean squared error, used for the auto-encoder
// reconstruction term of Bellamy's joint objective.
type MSELoss struct{}

// Name implements Loss.
func (MSELoss) Name() string { return "mse" }

// Compute implements Loss.
func (MSELoss) Compute(ws *mat.Workspace, pred, target *mat.Dense) (float64, *mat.Dense) {
	checkLossShapes("mse", pred, target)
	return mse(ws, pred, target, nil)
}

// ComputeRows is Compute against the target matrix whose i-th row is
// target.Row(rows[i]), without building it.
func (MSELoss) ComputeRows(ws *mat.Workspace, pred, target *mat.Dense, rows []int32) (float64, *mat.Dense) {
	if len(rows) != pred.Rows || target.Cols != pred.Cols {
		panic(fmt.Sprintf("nn: mse loss shape mismatch %dx%d vs %d rows of %d",
			pred.Rows, pred.Cols, len(rows), target.Cols))
	}
	return mse(ws, pred, target, rows)
}

// mse compares row i of pred with row rows[i] of target (row i when
// rows is nil).
func mse(ws *mat.Workspace, pred, target *mat.Dense, rows []int32) (float64, *mat.Dense) {
	n := float64(len(pred.Data))
	grad := ws.GetRaw(pred.Rows, pred.Cols)
	var sum float64
	for i := 0; i < pred.Rows; i++ {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		t, g := target.Row(r), grad.Row(i)
		for j, p := range pred.Row(i) {
			d := p - t[j]
			sum += d * d
			g[j] = 2 * d / n
		}
	}
	return sum / n, grad
}

// HuberLoss is the Huber (smooth L1) loss used for the runtime term. For
// |d| <= Delta the loss is quadratic, beyond it linear, which damps the
// influence of outlier runtimes.
type HuberLoss struct {
	// Delta is the quadratic-to-linear transition point; PyTorch's
	// SmoothL1 default of 1.0 is used when zero.
	Delta float64
}

// Name implements Loss.
func (HuberLoss) Name() string { return "huber" }

// Compute implements Loss.
func (h HuberLoss) Compute(ws *mat.Workspace, pred, target *mat.Dense) (float64, *mat.Dense) {
	checkLossShapes("huber", pred, target)
	delta := h.Delta
	if delta == 0 {
		delta = 1
	}
	n := float64(len(pred.Data))
	grad := ws.GetRaw(pred.Rows, pred.Cols)
	var sum float64
	for i, p := range pred.Data {
		d := p - target.Data[i]
		if math.Abs(d) <= delta {
			sum += 0.5 * d * d
			grad.Data[i] = d / n
		} else {
			sum += delta * (math.Abs(d) - 0.5*delta)
			if d > 0 {
				grad.Data[i] = delta / n
			} else {
				grad.Data[i] = -delta / n
			}
		}
	}
	return sum / n, grad
}

// MAE returns the mean absolute error between pred and target, the metric
// Bellamy's fine-tuning stopping criterion is defined on.
func MAE(pred, target *mat.Dense) float64 {
	checkLossShapes("mae", pred, target)
	if len(pred.Data) == 0 {
		return 0
	}
	var sum float64
	for i, p := range pred.Data {
		sum += math.Abs(p - target.Data[i])
	}
	return sum / float64(len(pred.Data))
}

func checkLossShapes(name string, pred, target *mat.Dense) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("nn: %s loss shape mismatch %dx%d vs %dx%d",
			name, pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
}
