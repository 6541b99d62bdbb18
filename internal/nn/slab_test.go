package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// refAdam is the per-parameter Adam the slab sweep replaces: each
// trainable parameter's own moment state and one mat.AdamSweep32 over
// its own weights, the clip norm summed parameter by parameter.
type refAdam struct {
	a     *Adam
	state map[*Param][]float32
}

func (r *refAdam) step(params, second []*Param, w0, w1 float32, maxNorm float64) {
	a := r.a
	a.t++
	c := mat.AdamCoef{
		W0: w0, W1: w1,
		B1: float32(a.Beta1), OneMinusB1: float32(1 - a.Beta1),
		B2: float32(a.Beta2), OneMinusB2: float32(1 - a.Beta2),
		BC1: float32(1 - math.Pow(a.Beta1, float64(a.t))),
		BC2: float32(1 - math.Pow(a.Beta2, float64(a.t))),
		Eps: float32(a.Eps), LR: float32(a.LearningRate), WDecay: float32(a.WeightDecay),
		Scale: 1,
	}
	if maxNorm > 0 {
		var sq float64
		for k, p := range params {
			if p.Frozen {
				continue
			}
			for i, g := range p.Grad.Data {
				r := float64(float32(float32(w0*g) + float32(w1*second[k].Grad.Data[i])))
				sq += r * r
			}
		}
		if norm := math.Sqrt(sq); norm > maxNorm {
			c.Scale = float32(maxNorm / norm)
		}
	}
	for k, p := range params {
		g0, g1 := p.Grad.Data, second[k].Grad.Data
		if p.Frozen {
			clear(g0)
			clear(g1)
			continue
		}
		st, ok := r.state[p]
		if !ok {
			st = make([]float32, mat.AdamStateLen(len(g0)))
			r.state[p] = st
		}
		mat.AdamSweep32(p.Value.Data, g0, g1, st, &c)
	}
}

// TestSlabAdamMatchesPerParam: Adam's one sweep per run of trainable
// parameters over a slab and its replica is the per-parameter sweep, bit
// for bit, with a frozen parameter between trainable ones and ragged
// parameter sizes, clipping on (a cap the gradients exceed) and off.
// The padding between windows stays zero in weights, both gradient
// blocks and the moments.
func TestSlabAdamMatchesPerParam(t *testing.T) {
	shapes := [][2]int{{3, 5}, {1, 8}, {2, 7}, {1, 1}, {4, 4}}
	for _, maxNorm := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("clip=%v", maxNorm), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			build := func() (params, second []*Param) {
				for i, sh := range shapes {
					p := NewParam(fmt.Sprintf("p%d", i), sh[0], sh[1])
					for j := range p.Value.Data {
						p.Value.Data[j] = float32(rng.NormFloat64())
					}
					p.Frozen = i == 1
					params = append(params, p)
				}
				return params, nil
			}
			ref, _ := build()
			refSecond := make([]*Param, len(ref))
			for i, p := range ref {
				refSecond[i] = NewParam(p.Name, p.Value.Rows, p.Value.Cols)
			}
			got, _ := build()
			for i, p := range got {
				copy(p.Value.Data, ref[i].Value.Data)
			}
			slab := NewSlab(got...)
			second := make([]*Param, len(got))
			for i, p := range got {
				second[i] = &Param{Name: p.Name, Value: p.Value, Grad: NewParam(p.Name, p.Value.Rows, p.Value.Cols).Grad}
			}
			secondSlab := slab.Replica(second)

			opt, want := NewAdam(0.01, 0.001), &refAdam{a: NewAdam(0.01, 0.001), state: map[*Param][]float32{}}
			for step := 0; step < 5; step++ {
				for i := range got {
					for j := range got[i].Grad.Data {
						g0, g1 := float32(rng.NormFloat64()), float32(rng.NormFloat64())
						got[i].Grad.Data[j], ref[i].Grad.Data[j] = g0, g0
						second[i].Grad.Data[j], refSecond[i].Grad.Data[j] = g1, g1
					}
				}
				opt.StepShards(slab, secondSlab, 0.375, 0.625, maxNorm)
				want.step(ref, refSecond, 0.375, 0.625, maxNorm)
				for i, p := range got {
					for j, v := range p.Value.Data {
						if math.Float32bits(v) != math.Float32bits(ref[i].Value.Data[j]) {
							t.Fatalf("step %d: %s[%d] = %v, per-parameter sweep %v", step, p.Name, j, v, ref[i].Value.Data[j])
						}
					}
				}
				for name, block := range map[string][]float32{
					"values": slab.values, "grads": slab.grads, "replica grads": secondSlab.grads,
				} {
					checkPadding(t, slab, name, func(e int) []float32 { return block[e : e+1] })
				}
				checkPadding(t, slab, "moments", func(e int) []float32 {
					m := 2*(e&^7) + e&7 // the first moment; the second is 8 on
					return []float32{opt.moments[m], opt.moments[m+8]}
				})
				for _, g := range append(slab.grads, secondSlab.grads...) {
					if g != 0 {
						t.Fatalf("step %d: a gradient is %v after the step, want 0", step, g)
					}
				}
			}
		})
	}
}

// checkPadding fails unless at(e), what a block of s's layout holds
// for element e of the value block, is zero for every e outside the
// parameters' windows.
func checkPadding(t *testing.T, s *Slab, name string, at func(e int) []float32) {
	t.Helper()
	for i, p := range s.params {
		for e := s.off[i] + p.NumElements(); e < s.off[i+1]; e++ {
			for _, v := range at(e) {
				if v != 0 {
					t.Fatalf("%s: padding element %d after %s holds %v", name, e, p.Name, v)
				}
			}
		}
	}
}

// TestBuildSlabMatchesBuild: BuildSlab makes the networks Build makes —
// the same parameters in the same order, the same weights bit for bit,
// the same rng state after — laid out as NewSlab lays out their
// parameters.
func TestBuildSlabMatchesBuild(t *testing.T) {
	specs := []TwoLayerSpec{
		{Name: "a", In: 3, Hidden: 5, Out: 7, ActHidden: SELU{}, ActOut: SELU{}, WithBias: true, Init: InitHe},
		{Name: "b", In: 9, Hidden: 4, Out: 2, ActHidden: SELU{}, ActOut: Tanh{}, Dropout: 0.1, Init: InitLeCun},
		{Name: "c", In: 6, Hidden: 3, Out: 1, ActHidden: SELU{}, ActOut: Identity{}, WithBias: true, Init: InitXavier},
	}
	rng := rand.New(rand.NewSource(5))
	var want []*Param
	for _, sp := range specs {
		want = append(want, sp.Build(rng).Params()...)
	}
	wantSlab := NewSlab(want...)
	wantNext := rng.Int63()

	r := NewRand(5)
	nets, slab := BuildSlab(r, specs...)
	var got []*Param
	for _, n := range nets {
		got = append(got, n.Params()...)
	}
	if gotNext := r.Int63(); gotNext != wantNext {
		t.Fatalf("BuildSlab left rng at %d, Build at %d", gotNext, wantNext)
	}
	if len(got) != len(want) || len(slab.Params()) != len(got) {
		t.Fatalf("%d parameters (%d in the slab), Build makes %d", len(got), len(slab.Params()), len(want))
	}
	if len(slab.values) != len(wantSlab.values) || len(slab.grads) != len(wantSlab.grads) {
		t.Fatalf("blocks of %d and %d floats, NewSlab's are %d", len(slab.values), len(slab.grads), len(wantSlab.values))
	}
	for i, p := range got {
		w := want[i]
		if p != slab.Params()[i] || p.Name != w.Name || slab.off[i] != wantSlab.off[i] {
			t.Fatalf("parameter %d: %s at %d, want %s at %d", i, p.Name, slab.off[i], w.Name, wantSlab.off[i])
		}
		if &p.Value.Data[0] != &slab.values[slab.off[i]] || &p.Grad.Data[0] != &slab.grads[slab.off[i]] {
			t.Fatalf("%s is not the slab's window", p.Name)
		}
		if !p.Value.Equalish(w.Value, 0) || !p.Grad.Equalish(w.Grad, 0) {
			t.Fatalf("%s differs from Build's", p.Name)
		}
	}
}

// TestAdamMomentsWiden: an Adam keeps moments only for the parameters
// that have been trainable, and widening the block when a frozen one
// starts to learn keeps the moments of the others: the updates equal
// the per-parameter sweep's, bit for bit.
func TestAdamMomentsWiden(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	build := func() []*Param {
		var ps []*Param
		for i, n := range []int{20, 3, 9} {
			p := NewParam(fmt.Sprintf("p%d", i), 1, n)
			for j := range p.Value.Data {
				p.Value.Data[j] = float32(rng.NormFloat64())
			}
			ps = append(ps, p)
		}
		return ps
	}
	ref, got := build(), build()
	refSecond := make([]*Param, len(ref))
	for i, p := range got {
		copy(p.Value.Data, ref[i].Value.Data)
		refSecond[i] = NewParam(p.Name, 1, p.NumElements())
	}
	slab := NewSlab(got...)
	opt, want := NewAdam(0.01, 0.001), &refAdam{a: NewAdam(0.01, 0.001), state: map[*Param][]float32{}}
	// Steps 0-1 train p2 alone, 2-3 add p0, 4-5 all three.
	frozen := [][3]bool{{true, true, false}, {true, true, false}, {false, true, false}, {false, true, false}, {false, false, false}, {false, false, false}}
	for step, fr := range frozen {
		for i := range got {
			got[i].Frozen, ref[i].Frozen = fr[i], fr[i]
			for j := range got[i].Grad.Data {
				g := float32(rng.NormFloat64())
				got[i].Grad.Data[j], ref[i].Grad.Data[j] = g, g
			}
		}
		opt.StepShards(slab, nil, 1, 0, 0)
		want.step(ref, refSecond, 1, 0, 0)
		if lo, hi := slab.off[0], slab.off[len(got)]; step < 2 {
			lo = slab.off[2]
			if opt.lo != lo || opt.hi != hi || len(opt.moments) != 2*(hi-lo) {
				t.Fatalf("step %d: moments cover [%d, %d) in %d floats, want [%d, %d)", step, opt.lo, opt.hi, len(opt.moments), lo, hi)
			}
		}
		for i, p := range got {
			for j, v := range p.Value.Data {
				if math.Float32bits(v) != math.Float32bits(ref[i].Value.Data[j]) {
					t.Fatalf("step %d: %s[%d] = %v, per-parameter sweep %v", step, p.Name, j, v, ref[i].Value.Data[j])
				}
			}
		}
	}
}
