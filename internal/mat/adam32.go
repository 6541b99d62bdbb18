package mat

import (
	"fmt"
	"math"
)

// AdamCoef holds the scalars of one Adam step over a parameter, in the
// order adamSweep32 loads them: the weights the two shards' gradients
// are summed with, the clip factor the sum is scaled by, the moment
// decays and their complements, the bias corrections, epsilon, the
// learning rate and the decoupled weight decay.
type AdamCoef struct {
	W0, W1, Scale   float32
	B1, OneMinusB1  float32
	B2, OneMinusB2  float32
	BC1, BC2        float32
	Eps, LR, WDecay float32
}

// AdamStateLen is the length of the moment state AdamSweep32 keeps for
// n weights: a chunk of 8 first moments then 8 second moments per 8
// weights, the last chunk padded.
func AdamStateLen(n int) int { return 2 * ((n + 7) &^ 7) }

// AdamSweep32 applies one Adam step with decoupled weight decay to w in
// a single sweep: per weight, the gradient is g = (W0·g0 + W1·g1)·Scale
// — the reduction of two shards' gradients and the clip factor folded
// into the read — then
//
//	m = B1·m + (1−B1)·g
//	v = B2·v + (1−B2)·g²
//	w −= LR·((m/BC1) / (sqrt(v/BC2) + Eps) + WDecay·w)
//
// and g0 and g1 are zeroed. g1 may be g0 itself (with W1 = 0) when there
// is one shard. st is the moment state, AdamStateLen(len(w)) long.
// Every operation rounds to float32 on its own, no multiply-add fused,
// so the asm family's 8-lane kernel and the plain family's loop compute
// the same bits.
func AdamSweep32(w, g0, g1, st []float32, c *AdamCoef) {
	n := len(w)
	if len(g0) != n || len(g1) != n || len(st) != AdamStateLen(n) {
		panic(fmt.Sprintf("mat: AdamSweep32 lengths w %d, g0 %d, g1 %d, state %d", n, len(g0), len(g1), len(st)))
	}
	if !useAsm {
		adamSweepPlain(w, g0, g1, st, c)
		return
	}
	full := n &^ 7
	if full > 0 {
		adamSweep32(&w[0], &g0[0], &g1[0], &st[0], full, c)
	}
	if t := n - full; t > 0 {
		var wb, gb0, gb1 [8]float32
		copy(wb[:], w[full:])
		copy(gb0[:], g0[full:])
		copy(gb1[:], g1[full:])
		adamSweep32(&wb[0], &gb0[0], &gb1[0], &st[2*full], 8, c)
		copy(w[full:], wb[:t])
		clear(g0[full:])
		clear(g1[full:])
	}
}

// adamSweepPlain is AdamSweep32's plain arm. The explicit conversions
// keep the compiler from fusing a multiply into an add.
func adamSweepPlain(w, g0, g1, st []float32, c *AdamCoef) {
	for i := range w {
		m, v := &st[2*(i&^7)+i&7], &st[2*(i&^7)+8+i&7]
		g := float32(float32(c.W0*g0[i])+float32(c.W1*g1[i])) * c.Scale
		*m = float32(c.B1**m) + float32(c.OneMinusB1*g)
		*v = float32(c.B2**v) + float32(c.OneMinusB2*float32(g*g))
		upd := (*m / c.BC1) / (float32(math.Sqrt(float64(*v/c.BC2))) + c.Eps)
		w[i] -= float32(c.LR * float32(upd+float32(c.WDecay*w[i])))
		g0[i], g1[i] = 0, 0
	}
}
