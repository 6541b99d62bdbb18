package nn

// CyclicalLR implements triangular cyclical annealing between Low and
// High, the schedule Bellamy's fine-tuning uses in (1e-3, 1e-2). The rate
// starts at High, descends linearly to Low over half a period, and climbs
// back.
type CyclicalLR struct {
	Low, High float64
	// Period is the full cycle length in epochs; 0 defaults to 200.
	Period int
}

// Rate returns the learning rate for an epoch index.
func (c CyclicalLR) Rate(epoch int) float64 {
	period := c.Period
	if period <= 0 {
		period = 200
	}
	half := float64(period) / 2
	pos := float64(epoch % period)
	var frac float64 // 0 at High, 1 at Low
	if pos < half {
		frac = pos / half
	} else {
		frac = (float64(period) - pos) / half
	}
	return c.High - (c.High-c.Low)*frac
}

// EarlyStopper tracks the best observed metric and signals when training
// should stop: either the metric reached Target, or no improvement was
// seen within Patience epochs. It mirrors Bellamy's fine-tuning criterion
// (MAE <= 5 s, or no improvement in 1000 epochs).
type EarlyStopper struct {
	// Target stops training as soon as the metric is <= Target.
	Target float64
	// Patience is the number of epochs without improvement tolerated.
	Patience int

	best      float64
	bestEpoch int
	seen      bool
}

// NewEarlyStopper builds a stopper with the given target and patience.
func NewEarlyStopper(target float64, patience int) *EarlyStopper {
	return &EarlyStopper{Target: target, Patience: patience}
}

// Observe records the metric for an epoch and reports (improved, stop).
func (e *EarlyStopper) Observe(epoch int, metric float64) (improved, stop bool) {
	if !e.seen || metric < e.best {
		e.best = metric
		e.bestEpoch = epoch
		e.seen = true
		improved = true
	}
	if metric <= e.Target {
		return improved, true
	}
	if e.Patience > 0 && epoch-e.bestEpoch >= e.Patience {
		return improved, true
	}
	return improved, false
}

// Best returns the best metric observed so far and its epoch.
func (e *EarlyStopper) Best() (float64, int) { return e.best, e.bestEpoch }
