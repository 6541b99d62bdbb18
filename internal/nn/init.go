package nn

import (
	"math"
	"math/rand"

	"repro/internal/mat"
)

// InitScheme selects a weight initialization strategy.
type InitScheme int

const (
	// InitHe draws from N(0, 2/fanIn), the He et al. scheme the paper
	// cites for its layers.
	InitHe InitScheme = iota
	// InitLeCun draws from N(0, 1/fanIn), the initialization the SELU
	// paper prescribes for self-normalizing networks.
	InitLeCun
	// InitXavier draws from U(-a, a) with a = sqrt(6/(fanIn+fanOut)).
	InitXavier
)

// String implements fmt.Stringer.
func (s InitScheme) String() string {
	switch s {
	case InitHe:
		return "he"
	case InitLeCun:
		return "lecun"
	case InitXavier:
		return "xavier"
	default:
		return "unknown"
	}
}

// InitDense fills m (treated as a fanIn x fanOut weight matrix) according
// to the chosen scheme using rng for reproducibility. Each weight is
// drawn in float64 and rounded once.
func InitDense(m *mat.DenseF32, scheme InitScheme, rng *rand.Rand) {
	fanIn := float64(m.Rows)
	fanOut := float64(m.Cols)
	switch scheme {
	case InitHe:
		std := math.Sqrt(2 / fanIn)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64() * std)
		}
	case InitLeCun:
		std := math.Sqrt(1 / fanIn)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64() * std)
		}
	case InitXavier:
		a := math.Sqrt(6 / (fanIn + fanOut))
		for i := range m.Data {
			m.Data[i] = float32((rng.Float64()*2 - 1) * a)
		}
	default:
		panic("nn: unknown init scheme")
	}
}
