package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// dropoutRef is AlphaDropout's training-mode pass one unit at a time:
// a fresh 64-bit draw for every fourth unit, 16 bits of it per unit, a
// unit kept when its field is below q·2¹⁶. It returns the output and
// the slope d out/d in per unit.
func dropoutRef(p float64, rng *rand.Rand, x []float64) (out, slope []float64) {
	q := 1 - p
	a := 1 / math.Sqrt(q+alphaPrime*alphaPrime*q*p)
	dropped := a*alphaPrime - a*p*alphaPrime
	keepBelow := uint64(q * (1 << 16))
	out, slope = make([]float64, len(x)), make([]float64, len(x))
	var bits uint64
	for i, v := range x {
		if i%4 == 0 {
			bits = rng.Uint64()
		}
		k := 0.0
		if bits&0xffff < keepBelow {
			k = a
		}
		bits >>= 16
		slope[i] = k
		out[i] = k*(v-alphaPrime) + dropped
	}
	return out, slope
}

// TestAlphaDropoutMatchesRef pins the training-mode pass and its
// backward pass bit for bit to the unit-at-a-time reference, from the
// same generator state, over lengths that leave every remainder of the
// four units a draw decides and a training shard's 224×8, at the
// model's drop rate and at a half.
func TestAlphaDropoutMatchesRef(t *testing.T) {
	for _, p := range []float64{0.1, 0.5} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 224 * 8} {
			name := fmt.Sprintf("p=%v/n=%d", p, n)
			rng := rand.New(rand.NewSource(int64(n)))
			x := randDense(rng, 1, n)
			g := randDense(rng, 1, n)
			d := NewAlphaDropout(p, rand.New(rand.NewSource(9)))
			wantOut, slope := dropoutRef(p, rand.New(rand.NewSource(9)), x.Data)
			out := d.Forward(nil, x, true)
			back := d.Backward(nil, g)
			for i := range x.Data {
				if math.Float64bits(out.Data[i]) != math.Float64bits(wantOut[i]) {
					t.Fatalf("%s: out[%d] = %v, reference %v", name, i, out.Data[i], wantOut[i])
				}
				if want := g.Data[i] * slope[i]; math.Float64bits(back.Data[i]) != math.Float64bits(want) {
					t.Fatalf("%s: grad[%d] = %v, reference %v", name, i, back.Data[i], want)
				}
			}
		}
	}
}

// BenchmarkAlphaDropout times the training-mode pass and its backward
// pass on one training shard's 224×8 hidden units.
func BenchmarkAlphaDropout(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, g := randDense(rng, 224, 8), randDense(rng, 224, 8)
	d := NewAlphaDropout(0.1, rng)
	w := mat.NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		d.Forward(w, x, true)
		d.Backward(w, g)
	}
}
