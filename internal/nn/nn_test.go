package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// ws is the shared test workspace. Tests in this package run
// sequentially (none call t.Parallel), so sharing one arena is safe and
// exercises the buffer-recycling path across many shapes.
var ws = mat.NewWorkspaceF32()

func TestSELUValues(t *testing.T) {
	s := SELU{}
	if got := s.Apply(1); math.Abs(float64(got)-SELULambda) > 1e-7 {
		t.Fatalf("SELU(1) = %v, want lambda", got)
	}
	if got := s.Apply(0); got != 0 {
		t.Fatalf("SELU(0) = %v, want 0", got)
	}
	// As x -> -inf, SELU approaches -lambda*alpha.
	if got := s.Apply(-50); math.Abs(float64(got)-alphaPrime) > 1e-7 {
		t.Fatalf("SELU(-50) = %v, want %v", got, alphaPrime)
	}
}

// TestActivationDerivatives checks each activation's output-form
// derivative against central finite differences of Apply, taken over
// the float32 step actually made.
func TestActivationDerivatives(t *testing.T) {
	acts := []Activation{SELU{}, Tanh{}, Identity{}}
	xs := []float32{-2.3, -0.5, 0.1, 0.9, 3.7}
	const h = 1e-2
	for _, act := range acts {
		for _, x := range xs {
			xp, xm := x+h, x-h
			want := (float64(act.Apply(xp)) - float64(act.Apply(xm))) / (float64(xp) - float64(xm))
			got := float64(act.DerivFromOutput(act.Apply(x)))
			if math.Abs(got-want) > 1e-4 {
				t.Errorf("%s'(%v) = %v, finite-diff %v", act.Name(), x, got, want)
			}
		}
	}
}

// TestEpiloguesMatchScalarArms holds the layer epilogues, whichever
// kernel family runs them, to the per-element scalar forms: the forward
// output within 2 ulp of act(x + b) (mat's activation kernels' bound;
// the plain family is the scalar form), and the backward pass bit-equal
// to g * act.DerivFromOutput(y), with the bias gradient summed in row
// order. Shapes cover the 8-lane body and every ragged tail.
func TestEpiloguesMatchScalarArms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, act := range []Activation{SELU{}, Tanh{}} {
		for _, shape := range [][2]int{{1, 1}, {3, 5}, {7, 8}, {64, 40}, {33, 3}} {
			for _, withBias := range []bool{false, true} {
				rows, cols := shape[0], shape[1]
				pre := randDense(rng, rows, cols)
				for i := range pre.Data {
					pre.Data[i] *= 3
				}
				var bias []float32
				if withBias {
					bias = randDense(rng, 1, cols).Data
				}
				out := pre.Clone()
				biasActInPlace(act, out, bias)
				for i, x := range pre.Data {
					if bias != nil {
						x += bias[i%cols]
					}
					want := act.Apply(x)
					if ulps(out.Data[i], want) > 2 {
						t.Fatalf("%s %dx%d bias=%v: forward[%d] = %v, scalar %v", act.Name(), rows, cols, withBias, i, out.Data[i], want)
					}
				}

				grad := randDense(rng, rows, cols)
				dpre := mat.NewDenseF32(rows, cols)
				var biasGrad, wantBias []float32
				if withBias {
					biasGrad, wantBias = make([]float32, cols), make([]float32, cols)
				}
				actGradFromOut(act, grad, out, dpre, biasGrad)
				for i, g := range grad.Data {
					want := g * act.DerivFromOutput(out.Data[i])
					if dpre.Data[i] != want {
						t.Fatalf("%s %dx%d: backward[%d] = %v, scalar %v", act.Name(), rows, cols, i, dpre.Data[i], want)
					}
					if withBias {
						wantBias[i%cols] += want
					}
				}
				for j, want := range wantBias {
					if biasGrad[j] != want {
						t.Fatalf("%s %dx%d: bias gradient[%d] = %v, row-order sum %v", act.Name(), rows, cols, j, biasGrad[j], want)
					}
				}
			}
		}
	}
}

func TestActivationByName(t *testing.T) {
	for _, name := range []string{"selu", "tanh", "identity"} {
		if got := ActivationByName(name).Name(); got != name {
			t.Errorf("ActivationByName(%q).Name() = %q", name, got)
		}
	}
	for _, name := range []string{"relu", "gelu", ""} {
		if _, ok := LookupActivation(name); ok {
			t.Errorf("LookupActivation(%q) knows it", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown activation")
		}
	}()
	ActivationByName("gelu")
}

func TestLinearActForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := newLinearAct(NewParam, "t", 3, 5, true, SELU{}, InitHe, rng)
	x := mat.NewDenseF32(4, 3)
	y := l.Forward(ws, x)
	if y.Rows != 4 || y.Cols != 5 {
		t.Fatalf("output shape %dx%d, want 4x5", y.Rows, y.Cols)
	}
}

func TestLinearActNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := newLinearAct(NewParam, "t", 2, 2, false, Identity{}, InitHe, rng)
	if l.B != nil {
		t.Fatal("bias allocated for no-bias layer")
	}
	if got := len(l.params()); got != 1 {
		t.Fatalf("params len = %d, want 1", got)
	}
	// Zero input must map to zero output without bias.
	y := l.Forward(ws, mat.NewDenseF32(1, 2))
	if y.Data[0] != 0 || y.Data[1] != 0 {
		t.Fatalf("no-bias layer maps 0 to %v", y.Data)
	}
}

// lossFn is a loss and its gradient w.r.t. the prediction, as
// HuberLoss.Compute and mseLoss compute them.
type lossFn func(ws *mat.WorkspaceF32, pred, target *mat.DenseF32) (float64, *mat.DenseF32)

// gradCheck compares the analytic gradients of params, which forward
// and backward (a network's eval-mode passes) accumulate, against
// central finite differences of the loss, over the float32 step actually
// made. The network computes in float32, so the step is 1e-3 (1e-5 in
// float64): the loss differences carry float32 rounding of ~1e-7 per
// unit of loss, ~5e-5 after the division by the step.
func gradCheck(t *testing.T, params []*Param, forward func(x *mat.DenseF32) *mat.DenseF32, backward func(g *mat.DenseF32), x, target *mat.DenseF32, loss lossFn) {
	t.Helper()
	zeroGrads(params)
	_, g := loss(ws, forward(x), target)
	backward(g)

	const h = 1e-3
	for _, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			up, dn := orig+h, orig-h
			p.Value.Data[i] = up
			lp, _ := loss(ws, forward(x), target)
			p.Value.Data[i] = dn
			lm, _ := loss(ws, forward(x), target)
			p.Value.Data[i] = orig
			want := (lp - lm) / (float64(up) - float64(dn))
			got := float64(p.Grad.Data[i])
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param %s[%d]: analytic grad %v, numeric %v", p.Name, i, got, want)
			}
		}
	}
}

func TestGradCheckTwoLayerSELU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := TwoLayerSpec{
		Name: "f", In: 3, Hidden: 6, Out: 2,
		ActHidden: SELU{}, ActOut: SELU{}, WithBias: true, Init: InitLeCun,
	}.Build(rng)
	x := randDense(rng, 5, 3)
	target := randDense(rng, 5, 2)
	gradCheckMLP(t, net, x, target, mseLoss)
}

// gradCheckMLP is gradCheck on every parameter of net.
func gradCheckMLP(t *testing.T, net *MLP, x, target *mat.DenseF32, loss lossFn) {
	t.Helper()
	gradCheck(t, net.Params(),
		func(x *mat.DenseF32) *mat.DenseF32 { return net.Forward(ws, x, false) },
		func(g *mat.DenseF32) { net.Backward(ws, g) },
		x, target, loss)
}

func TestGradCheckTanhHuber(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := TwoLayerSpec{
		Name: "h", In: 4, Hidden: 8, Out: 4,
		ActHidden: SELU{}, ActOut: Tanh{}, WithBias: false, Init: InitLeCun,
	}.Build(rng)
	x := randDense(rng, 3, 4)
	target := randDense(rng, 3, 4)
	gradCheckMLP(t, net, x, target, HuberLoss{Delta: 1}.Compute)
}

func TestGradCheckIdentityOut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := TwoLayerSpec{
		Name: "z", In: 6, Hidden: 4, Out: 1,
		ActHidden: SELU{}, ActOut: Identity{}, WithBias: true, Init: InitHe,
	}.Build(rng)
	x := randDense(rng, 7, 6)
	target := randDense(rng, 7, 1)
	gradCheckMLP(t, net, x, target, HuberLoss{}.Compute)
}

// TestGradCheckLinearAct checks one LinearAct per activation, with and
// without a bias, so every backward epilogue meets finite differences.
func TestGradCheckLinearAct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, act := range []Activation{SELU{}, Tanh{}, Identity{}} {
		for _, withBias := range []bool{false, true} {
			l := newLinearAct(NewParam, "l", 5, 6, withBias, act, InitLeCun, rng)
			x := randDense(rng, 9, 5)
			target := randDense(rng, 9, 6)
			gradCheck(t, l.params(),
				func(x *mat.DenseF32) *mat.DenseF32 { return l.Forward(ws, x) },
				func(g *mat.DenseF32) { l.Backward(ws, g) },
				x, target, mseLoss)
		}
	}
}

func TestMSELoss(t *testing.T) {
	pred := fromRows32([][]float32{{2}, {4}})
	target := fromRows32([][]float32{{1}, {2}})
	l, g := mseLoss(ws, pred, target)
	if math.Abs(l-2.5) > 1e-12 { // (1 + 4)/2
		t.Fatalf("MSE = %v, want 2.5", l)
	}
	if g.Data[0] != 1 || g.Data[1] != 2 {
		t.Fatalf("MSE grad = %v, want [1 2]", g.Data)
	}
}

func TestHuberLossRegions(t *testing.T) {
	h := HuberLoss{Delta: 1}
	pred := fromRows32([][]float32{{0.5}, {3}})
	target := fromRows32([][]float32{{0}, {0}})
	l, g := h.Compute(ws, pred, target)
	// 0.5*0.25 + 1*(3-0.5) = 0.125 + 2.5 = 2.625; mean = 1.3125
	if math.Abs(l-1.3125) > 1e-12 {
		t.Fatalf("Huber = %v, want 1.3125", l)
	}
	if g.Data[0] != 0.25 { // d/n = 0.5/2
		t.Fatalf("quadratic-region grad = %v, want 0.25", g.Data[0])
	}
	if g.Data[1] != 0.5 { // delta/n = 1/2
		t.Fatalf("linear-region grad = %v, want 0.5", g.Data[1])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - c||^2 for a fixed target c.
	p := NewParam("w", 1, 3)
	slab := NewSlab(p)
	c := []float32{1.5, -2.0, 0.5}
	opt := NewAdam(0.05, 0)
	for i := 0; i < 2000; i++ {
		for j := range c {
			p.Grad.Data[j] = 2 * (p.Value.Data[j] - c[j])
		}
		opt.StepShards(slab, nil, 1, 0, 0)
	}
	for j, want := range c {
		if math.Abs(float64(p.Value.Data[j]-want)) > 1e-3 {
			t.Fatalf("w[%d] = %v, want %v", j, p.Value.Data[j], want)
		}
	}
}

func TestAdamSkipsFrozen(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.Value.Data[0] = 3
	p.Grad.Data[0] = 1
	p.Frozen = true
	opt := NewAdam(0.1, 0)
	opt.StepShards(NewSlab(p), nil, 1, 0, 0)
	if p.Value.Data[0] != 3 {
		t.Fatalf("frozen param moved to %v", p.Value.Data[0])
	}
}

func TestAdamWeightDecayShrinks(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.Value.Data[0] = 10
	slab := NewSlab(p)
	opt := NewAdam(0.01, 0.1)
	// Zero gradient: only decay acts.
	for i := 0; i < 100; i++ {
		opt.StepShards(slab, nil, 1, 0, 0)
	}
	if p.Value.Data[0] >= 10 {
		t.Fatalf("weight decay did not shrink weight: %v", p.Value.Data[0])
	}
}

// TestGradClipIgnoresFrozen: a frozen parameter's gradient is never
// applied, so it must not enter the norm that scales the others' step in
// Adam's fused clipped step. The clip factor itself scales a norm past
// the cap down to the cap and leaves one under it alone.
func TestGradClipIgnoresFrozen(t *testing.T) {
	build := func() (live, frozen *Param) {
		live, frozen = NewParam("live", 1, 2), NewParam("frozen", 1, 2)
		live.Grad.Data[0], live.Grad.Data[1] = 0.3, 0.4 // norm 0.5: under the cap
		frozen.Grad.Data[0] = 1000
		frozen.Frozen = true
		return live, frozen
	}
	live, frozen := build()
	slab := NewSlab(live, frozen)
	if s := clipScale(slab, slab.grads, 1, 0, 1); s != 1 {
		t.Fatalf("clip factor %v under the cap, want 1", s)
	}
	live.Grad.Data[0], live.Grad.Data[1] = 3, 4 // norm 5
	if s := clipScale(slab, slab.grads, 1, 0, 1); s != float32(0.2) {
		t.Fatalf("clip factor %v for norm 5 and cap 1, want 0.2", s)
	}

	// The fused step moves the live weight exactly as it does alone.
	alone, _ := build()
	NewAdam(0.1, 0).StepShards(NewSlab(alone), nil, 1, 0, 1)
	live, frozen = build()
	NewAdam(0.1, 0).StepShards(NewSlab(live, frozen), nil, 1, 0, 1)
	for i, v := range live.Value.Data {
		if v != alone.Value.Data[i] {
			t.Fatalf("fused step with a frozen neighbour moved weight %d to %v, alone %v", i, v, alone.Value.Data[i])
		}
	}
}

// TestForwardRowsMatchesExpanded: ForwardRows/BackwardRows on distinct
// rows plus an occurrence index equal Forward/Backward on the expanded
// matrix — outputs and parameter gradients to 1e-6 (float32 summed in
// other orders; 1e-12 in float64), with and without
// dropout (same seed, so identical masks), with heavy repeats and with
// every row distinct.
func TestForwardRowsMatchesExpanded(t *testing.T) {
	for _, dropout := range []float64{0, 0.4} {
		for name, rows := range map[string][]int32{
			"repeats":      {2, 0, 2, 2, 1, 0, 2, 1, 1, 2, 0},
			"all-distinct": {0, 1, 2},
		} {
			build := func() *MLP {
				return TwoLayerSpec{
					Name: "g", In: 5, Hidden: 6, Out: 3,
					ActHidden: SELU{}, ActOut: SELU{}, Dropout: dropout, Init: InitLeCun,
				}.Build(rand.New(rand.NewSource(11)))
			}
			got, want := build(), build()
			rng := rand.New(rand.NewSource(12))
			x := randDense(rng, 3, 5)
			expanded := mat.NewDenseF32(len(rows), 5)
			for i, r := range rows {
				copy(expanded.Row(i), x.Row(int(r)))
			}
			grad := randDense(rng, len(rows), 3)

			wantOut := want.Forward(nil, expanded, true)
			want.Backward(nil, grad)
			gotOut := got.ForwardRows(nil, x, rows, true)
			got.BackwardRows(nil, grad, nil)
			if !gotOut.Equalish(wantOut, 1e-6) {
				t.Fatalf("%s dropout %v: ForwardRows differs from Forward on the expanded matrix", name, dropout)
			}
			wp := want.Params()
			for k, p := range got.Params() {
				if !p.Grad.Equalish(wp[k].Grad, 1e-6) {
					t.Fatalf("%s dropout %v: %s gradient differs from Backward on the expanded matrix", name, dropout, p.Name)
				}
			}
		}
	}
}

// TestReplicaSharesValuesOwnsGradients: a replica reads the original's
// parameter values through the same matrices, so an update to one is an
// update to both, while a pass on the replica writes only the replica's
// gradients and caches and draws masks from its own generator; and
// Adam's StepShards applies the two gradients summed with the given
// weights — the update a lone step on that sum makes — leaving both
// zero.
func TestReplicaSharesValuesOwnsGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	spec := TwoLayerSpec{Name: "g", In: 6, Hidden: 5, Out: 3, ActHidden: SELU{}, ActOut: Tanh{},
		WithBias: true, Dropout: 0.25, Init: InitLeCun}
	net := spec.Build(rng)
	slab := NewSlab(net.Params()...)
	own := NewRand(9)
	rep := net.Replica(own)
	repSlab := slab.Replica(rep.Params())
	if d := rep.Drop; d.Rng != own || d.P != 0.25 {
		t.Fatalf("the replica's dropout layer has p=%v and not the generator it was given", d.P)
	}
	ps, rs := net.Params(), rep.Params()
	if len(ps) != len(rs) {
		t.Fatalf("replica has %d parameters, the original %d", len(rs), len(ps))
	}
	for k, p := range ps {
		if rs[k].Name != p.Name || rs[k].Value != p.Value || rs[k].Grad == p.Grad {
			t.Fatalf("%s: the replica must share the value matrix and own its gradient", p.Name)
		}
	}

	// Eval-mode passes over different inputs on the two networks: each
	// ends with the gradient a lone network computes for its input.
	x0, x1 := randDense(rng, 4, 6), randDense(rng, 7, 6)
	g0, g1 := randDense(rng, 4, 3), randDense(rng, 7, 3)
	net.Forward(nil, x0, false)
	rep.Forward(nil, x1, false)
	net.Backward(nil, g0)
	rep.Backward(nil, g1)
	lone := spec.Build(rand.New(rand.NewSource(8)))
	lone.Forward(nil, x1, false)
	lone.Backward(nil, g1)
	for k, p := range lone.Params() {
		if !rs[k].Grad.Equalish(p.Grad, 0) {
			t.Fatalf("%s: the replica's gradient differs from a lone network's on the same input", p.Name)
		}
	}

	sum := NewParam("sum", ps[0].Value.Rows, ps[0].Value.Cols)
	copy(sum.Value.Data, ps[0].Value.Data)
	for i, g := range ps[0].Grad.Data {
		sum.Grad.Data[i] = float32(0.25*g) + float32(0.75*rs[0].Grad.Data[i])
	}
	NewAdam(0.1, 0.01).StepShards(NewSlab(sum), nil, 1, 0, 0)
	NewAdam(0.1, 0.01).StepShards(slab, repSlab, 0.25, 0.75, 0)
	for i, v := range ps[0].Value.Data {
		if v != sum.Value.Data[i] {
			t.Fatalf("weight[%d] = %v after the two-shard step, %v after a step on the summed gradient", i, v, sum.Value.Data[i])
		}
	}
	for _, pl := range [][]*Param{ps, rs} {
		for _, p := range pl {
			for i, g := range p.Grad.Data {
				if g != 0 {
					t.Fatalf("%s: gradient[%d] = %v after the step, want 0", p.Name, i, g)
				}
			}
		}
	}

	ps[0].Value.Data[0] = 42
	if rs[0].Value.Data[0] != 42 {
		t.Fatal("an update to the original's weight is not visible through the replica")
	}
}

func TestCyclicalLRBounds(t *testing.T) {
	s := CyclicalLR{Low: 1e-3, High: 1e-2, Period: 100}
	for e := 0; e < 500; e++ {
		r := s.Rate(e)
		if r < 1e-3-1e-15 || r > 1e-2+1e-15 {
			t.Fatalf("epoch %d: rate %v out of bounds", e, r)
		}
	}
	if got := s.Rate(0); math.Abs(got-1e-2) > 1e-15 {
		t.Fatalf("Rate(0) = %v, want High", got)
	}
	if got := s.Rate(50); math.Abs(got-1e-3) > 1e-15 {
		t.Fatalf("Rate(half period) = %v, want Low", got)
	}
}

func TestEarlyStopperTarget(t *testing.T) {
	e := NewEarlyStopper(5, 100)
	if _, stop := e.Observe(0, 10); stop {
		t.Fatal("stopped above target without patience exhaustion")
	}
	if _, stop := e.Observe(1, 4.9); !stop {
		t.Fatal("did not stop at target")
	}
}

func TestEarlyStopperPatience(t *testing.T) {
	e := NewEarlyStopper(0, 3)
	e.Observe(0, 10)
	for i := 1; i < 3; i++ {
		if _, stop := e.Observe(i, 10); stop {
			t.Fatalf("stopped too early at epoch %d", i)
		}
	}
	if _, stop := e.Observe(3, 10); !stop {
		t.Fatal("did not stop after patience exhausted")
	}
	best, epoch := e.Best()
	if best != 10 || epoch != 0 {
		t.Fatalf("Best = (%v, %d), want (10, 0)", best, epoch)
	}
}

func TestEarlyStopperImprovementResets(t *testing.T) {
	e := NewEarlyStopper(0, 3)
	e.Observe(0, 10)
	e.Observe(1, 9) // improvement
	e.Observe(2, 9)
	e.Observe(3, 9)
	if _, stop := e.Observe(4, 9); !stop {
		t.Fatal("did not stop 3 epochs after last improvement")
	}
}

func TestAlphaDropoutEvalIsIdentity(t *testing.T) {
	rng := NewRand(3)
	d := NewAlphaDropout(0.5, rng)
	x := randDense(rng.Rand, 4, 4)
	y := d.Forward(ws, x, false)
	if !y.Equalish(x, 0) {
		t.Fatal("eval-mode dropout is not identity")
	}
}

// TestAlphaDropoutEvalBetweenSteps: an eval pass after a training pass
// is the identity both ways — the masks of the training pass do not leak
// into its backward pass — and keeps the mask buffer, so alternating
// training and eval passes allocate nothing.
func TestAlphaDropoutEvalBetweenSteps(t *testing.T) {
	rng := NewRand(3)
	d := NewAlphaDropout(0.5, rng)
	x := randDense(rng.Rand, 4, 4)
	d.Forward(ws, x, true)
	if y := d.Forward(ws, x, false); y != x {
		t.Fatal("eval-mode dropout after a training pass is not identity")
	}
	g := randDense(rng.Rand, 4, 4)
	if back := d.Backward(ws, g); back != g {
		t.Fatal("the backward pass of an eval pass applied a training mask")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		ws.Reset()
		d.Forward(ws, x, true)
		d.Forward(ws, x, false)
	}); allocs != 0 {
		t.Fatalf("training + eval pass allocs/op = %v, want 0", allocs)
	}
}

func TestAlphaDropoutPreservesMoments(t *testing.T) {
	rng := NewRand(4)
	d := NewAlphaDropout(0.1, rng)
	// Standard-normal input; output should stay near zero mean, unit var.
	n := 200000
	x := mat.NewDenseF32(1, n)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	y := d.Forward(ws, x, true)
	var mean float64
	for _, v := range y.Data {
		mean += float64(v)
	}
	mean /= float64(n)
	var varSum float64
	for _, v := range y.Data {
		varSum += (float64(v) - mean) * (float64(v) - mean)
	}
	variance := varSum / float64(n)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("alpha-dropout mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("alpha-dropout variance = %v, want ~1", variance)
	}
}

func TestAlphaDropoutBackwardMasks(t *testing.T) {
	rng := NewRand(5)
	d := NewAlphaDropout(0.5, rng)
	x := randDense(rng.Rand, 2, 8)
	d.Forward(ws, x, true)
	g := mat.NewDenseF32(2, 8)
	g.Fill(1)
	back := d.Backward(ws, g)
	zeros, scaled := 0, 0
	for _, v := range back.Data {
		switch {
		case v == 0:
			zeros++
		default:
			scaled++
		}
	}
	if zeros == 0 || scaled == 0 {
		t.Fatalf("dropout backward mask degenerate: zeros=%d scaled=%d", zeros, scaled)
	}
}

func TestStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := TwoLayerSpec{
		Name: "f", In: 3, Hidden: 4, Out: 2,
		ActHidden: SELU{}, ActOut: Identity{}, WithBias: true, Init: InitHe,
	}.Build(rng)
	slab := NewSlab(net.Params()...)
	want := make(map[string]*mat.DenseF32)
	for _, p := range net.Params() {
		want[p.Name] = p.Value.Clone()
	}
	st := CaptureStateInto(nil, slab)
	// A second capture into a state reuses its storage; perturb,
	// capture the perturbed values, then restore.
	spare := CaptureStateInto(nil, slab)
	held := &spare.values[0]
	for _, p := range net.Params() {
		p.Value.Fill(99)
	}
	if spare = CaptureStateInto(spare, slab); &spare.values[0] != held || spare.values[0] != 99 {
		t.Fatal("CaptureStateInto did not copy into the storage it was given")
	}
	if err := RestoreState(slab, st); err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Params() {
		if !p.Value.Equalish(want[p.Name], 0) {
			t.Fatalf("param %s not restored", p.Name)
		}
	}
}

// TestRestoreStateMissingParam: a state that holds nothing — never
// captured — restores nothing.
func TestRestoreStateMissingParam(t *testing.T) {
	slab := NewSlab(NewParam("a", 1, 1))
	for _, st := range []*State{nil, {}} {
		if err := RestoreState(slab, st); err == nil {
			t.Fatal("expected error for a state that was never captured")
		}
	}
}

// TestRestoreStateShapeMismatch: a state restores only into the slab
// it was taken from, not into one of other shapes.
func TestRestoreStateShapeMismatch(t *testing.T) {
	st := CaptureStateInto(nil, NewSlab(NewParam("a", 2, 2)))
	if err := RestoreState(NewSlab(NewParam("a", 1, 2)), st); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestInitSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, scheme := range []InitScheme{InitHe, InitLeCun, InitXavier} {
		m := mat.NewDenseF32(200, 100)
		InitDense(m, scheme, rng)
		var sum, sq float64
		for _, v := range m.Data {
			sum += float64(v)
			sq += float64(v) * float64(v)
		}
		n := float64(len(m.Data))
		mean := sum / n
		if math.Abs(mean) > 0.01 {
			t.Errorf("%v: mean = %v, want ~0", scheme, mean)
		}
		variance := sq/n - mean*mean
		var want float64
		switch scheme {
		case InitHe:
			want = 2.0 / 200
		case InitLeCun:
			want = 1.0 / 200
		case InitXavier:
			want = 2.0 / (200 + 100) // var of U(-a,a) = a^2/3 = 2/(fanIn+fanOut)
		}
		if math.Abs(variance-want) > want*0.2 {
			t.Errorf("%v: variance = %v, want ~%v", scheme, variance, want)
		}
	}
}

// Property: Huber loss is bounded above by MSE-style quadratic loss and
// nonnegative; gradient magnitude never exceeds delta/n.
func TestQuickHuberProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		pred := randDense(rng, n, 1)
		target := randDense(rng, n, 1)
		h := HuberLoss{Delta: 1}
		l, g := h.Compute(ws, pred, target)
		if l < 0 {
			return false
		}
		// A gradient is delta/n rounded to float32, up to half an ulp
		// above it (1e-12 in float64).
		for _, gv := range g.Data {
			if math.Abs(float64(gv)) > 1.0/float64(n)*(1+1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a frozen network's forward output is deterministic in eval
// mode regardless of dropout configuration.
func TestQuickEvalDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := TwoLayerSpec{
			Name: "q", In: 3, Hidden: 5, Out: 2,
			ActHidden: SELU{}, ActOut: Identity{}, WithBias: true,
			Dropout: 0.2, Init: InitLeCun,
		}.Build(rng)
		x := randDense(rng, 4, 3)
		a := net.Forward(ws, x, false)
		b := net.Forward(ws, x, false)
		return a.Equalish(b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMLPTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := TwoLayerSpec{
		Name: "fit", In: 2, Hidden: 16, Out: 1,
		ActHidden: SELU{}, ActOut: Identity{}, WithBias: true, Init: InitLeCun,
	}.Build(rng)
	// Learn y = x0 + 2*x1.
	x := randDense(rng, 64, 2)
	y := mat.NewDenseF32(64, 1)
	for i := 0; i < 64; i++ {
		y.Data[i] = x.At(i, 0) + 2*x.At(i, 1)
	}
	slab := NewSlab(net.Params()...)
	opt := NewAdam(0.01, 0)
	first, _ := mseLoss(ws, net.Forward(ws, x, false), y)
	for e := 0; e < 500; e++ {
		slab.ZeroGrads()
		pred := net.Forward(ws, x, true)
		_, g := mseLoss(ws, pred, y)
		net.Backward(ws, g)
		opt.StepShards(slab, nil, 1, 0, 0)
	}
	last, _ := mseLoss(ws, net.Forward(ws, x, false), y)
	if last > first/10 {
		t.Fatalf("training did not reduce loss: first=%v last=%v", first, last)
	}
}

// zeroGrads resets the gradients of params.
func zeroGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

func randDense(rng *rand.Rand, rows, cols int) *mat.DenseF32 {
	m := mat.NewDenseF32(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// fromRows32 builds a float32 matrix from rows of equal length.
func fromRows32(rows [][]float32) *mat.DenseF32 {
	m := mat.NewDenseF32(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// ulps is the distance of a and b in float32 ulps (same-sign values).
func ulps(a, b float32) int64 {
	d := int64(math.Float32bits(a)) - int64(math.Float32bits(b))
	if a == b {
		return 0
	}
	if d < 0 {
		d = -d
	}
	return d
}

func BenchmarkForwardBackwardTwoLayer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := TwoLayerSpec{
		Name: "b", In: 40, Hidden: 8, Out: 4,
		ActHidden: SELU{}, ActOut: SELU{}, WithBias: false, Init: InitLeCun,
	}.Build(rng)
	x := randDense(rng, 64, 40)
	target := randDense(rng, 64, 4)
	params := net.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset() // recycle the previous iteration's intermediates
		zeroGrads(params)
		pred := net.Forward(ws, x, true)
		_, g := mseLoss(ws, pred, target)
		net.Backward(ws, g)
	}
}
