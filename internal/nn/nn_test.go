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
var ws = mat.NewWorkspace()

func TestSELUValues(t *testing.T) {
	s := SELU{}
	if got := s.Apply(1); math.Abs(got-SELULambda) > 1e-12 {
		t.Fatalf("SELU(1) = %v, want lambda", got)
	}
	if got := s.Apply(0); got != 0 {
		t.Fatalf("SELU(0) = %v, want 0", got)
	}
	// As x -> -inf, SELU approaches -lambda*alpha.
	if got := s.Apply(-50); math.Abs(got-alphaPrime) > 1e-9 {
		t.Fatalf("SELU(-50) = %v, want %v", got, alphaPrime)
	}
}

// TestActivationDerivatives checks each activation's output-form
// derivative against central finite differences of Apply.
func TestActivationDerivatives(t *testing.T) {
	acts := []Activation{SELU{}, Tanh{}, ReLU{}, Identity{}}
	xs := []float64{-2.3, -0.5, 0.1, 0.9, 3.7}
	const h = 1e-6
	for _, act := range acts {
		for _, x := range xs {
			want := (act.Apply(x+h) - act.Apply(x-h)) / (2 * h)
			got := act.DerivFromOutput(act.Apply(x))
			if math.Abs(got-want) > 1e-4 {
				t.Errorf("%s'(%v) = %v, finite-diff %v", act.Name(), x, got, want)
			}
		}
	}
}

// TestEpiloguesMatchScalarArms holds the layer epilogues, whichever
// kernel family runs them, to the per-element scalar forms: the forward
// output to 1e-15 (absolute, plus relative) of act(x + b) — SELU taken
// as lambda*alpha*expm1, which both families' error is measured from —
// and the backward pass bit-equal to g * act.DerivFromOutput(y), with
// the bias gradient summed in row order. Shapes cover the 4-lane body
// and every ragged tail.
func TestEpiloguesMatchScalarArms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, act := range []Activation{SELU{}, Tanh{}, ReLU{}} {
		for _, shape := range [][2]int{{1, 1}, {3, 5}, {7, 8}, {64, 40}, {33, 3}} {
			for _, withBias := range []bool{false, true} {
				rows, cols := shape[0], shape[1]
				pre := randDense(rng, rows, cols)
				for i := range pre.Data {
					pre.Data[i] *= 3
				}
				var bias []float64
				if withBias {
					bias = randDense(rng, 1, cols).Data
				}
				out := pre.Clone()
				fusedBiasActInPlace(act, out, bias)
				for i, x := range pre.Data {
					if bias != nil {
						x += bias[i%cols]
					}
					want := act.Apply(x)
					if _, selu := act.(SELU); selu && x <= 0 {
						want = SELULambda * SELUAlpha * math.Expm1(x)
					}
					if math.Abs(out.Data[i]-want) > 1e-15*(1+math.Abs(want)) {
						t.Fatalf("%s %dx%d bias=%v: forward[%d] = %v, scalar %v", act.Name(), rows, cols, withBias, i, out.Data[i], want)
					}
				}

				grad := randDense(rng, rows, cols)
				dpre := mat.NewDense(rows, cols)
				var biasGrad, wantBias []float64
				if withBias {
					biasGrad, wantBias = make([]float64, cols), make([]float64, cols)
				}
				fusedActGradFromOut(act, grad, out, dpre, biasGrad)
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
	for _, name := range []string{"selu", "tanh", "relu", "identity"} {
		if got := ActivationByName(name).Name(); got != name {
			t.Errorf("ActivationByName(%q).Name() = %q", name, got)
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
	l := NewLinearAct("t", 3, 5, true, SELU{}, InitHe, rng)
	x := mat.NewDense(4, 3)
	y := l.Forward(ws, x, false)
	if y.Rows != 4 || y.Cols != 5 {
		t.Fatalf("output shape %dx%d, want 4x5", y.Rows, y.Cols)
	}
}

func TestLinearActNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinearAct("t", 2, 2, false, Identity{}, InitHe, rng)
	if l.B != nil {
		t.Fatal("bias allocated for no-bias layer")
	}
	if got := len(l.Params()); got != 1 {
		t.Fatalf("Params len = %d, want 1", got)
	}
	// Zero input must map to zero output without bias.
	y := l.Forward(ws, mat.NewDense(1, 2), false)
	if y.Data[0] != 0 || y.Data[1] != 0 {
		t.Fatalf("no-bias layer maps 0 to %v", y.Data)
	}
}

// gradCheck compares analytic parameter gradients of a network against
// central finite differences of the loss.
func gradCheck(t *testing.T, net *MLP, x, target *mat.Dense, loss Loss) {
	t.Helper()
	params := net.Params()
	ZeroGrads(params)
	pred := net.Forward(ws, x, false)
	_, g := loss.Compute(ws, pred, target)
	net.Backward(ws, g)

	const h = 1e-5
	for _, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			lp, _ := loss.Compute(ws, net.Forward(ws, x, false), target)
			p.Value.Data[i] = orig - h
			lm, _ := loss.Compute(ws, net.Forward(ws, x, false), target)
			p.Value.Data[i] = orig
			want := (lp - lm) / (2 * h)
			got := p.Grad.Data[i]
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
	gradCheck(t, net, x, target, MSELoss{})
}

func TestGradCheckTanhHuber(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := TwoLayerSpec{
		Name: "h", In: 4, Hidden: 8, Out: 4,
		ActHidden: SELU{}, ActOut: Tanh{}, WithBias: false, Init: InitLeCun,
	}.Build(rng)
	x := randDense(rng, 3, 4)
	target := randDense(rng, 3, 4)
	gradCheck(t, net, x, target, HuberLoss{Delta: 1})
}

func TestGradCheckIdentityOut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := TwoLayerSpec{
		Name: "z", In: 6, Hidden: 4, Out: 1,
		ActHidden: SELU{}, ActOut: Identity{}, WithBias: true, Init: InitHe,
	}.Build(rng)
	x := randDense(rng, 7, 6)
	target := randDense(rng, 7, 1)
	gradCheck(t, net, x, target, HuberLoss{})
}

// TestGradCheckLinearAct checks one LinearAct per activation, with and
// without a bias, so every backward epilogue meets finite differences.
func TestGradCheckLinearAct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, act := range []Activation{SELU{}, Tanh{}, ReLU{}, Identity{}} {
		for _, withBias := range []bool{false, true} {
			net := NewMLP(NewLinearAct("l", 5, 6, withBias, act, InitLeCun, rng))
			x := randDense(rng, 9, 5)
			target := randDense(rng, 9, 6)
			gradCheck(t, net, x, target, MSELoss{})
		}
	}
}

func TestMSELoss(t *testing.T) {
	pred := mat.FromRows([][]float64{{2}, {4}})
	target := mat.FromRows([][]float64{{1}, {2}})
	l, g := MSELoss{}.Compute(ws, pred, target)
	if math.Abs(l-2.5) > 1e-12 { // (1 + 4)/2
		t.Fatalf("MSE = %v, want 2.5", l)
	}
	if math.Abs(g.Data[0]-1) > 1e-12 || math.Abs(g.Data[1]-2) > 1e-12 {
		t.Fatalf("MSE grad = %v, want [1 2]", g.Data)
	}
}

func TestHuberLossRegions(t *testing.T) {
	h := HuberLoss{Delta: 1}
	pred := mat.FromRows([][]float64{{0.5}, {3}})
	target := mat.FromRows([][]float64{{0}, {0}})
	l, g := h.Compute(ws, pred, target)
	// 0.5*0.25 + 1*(3-0.5) = 0.125 + 2.5 = 2.625; mean = 1.3125
	if math.Abs(l-1.3125) > 1e-12 {
		t.Fatalf("Huber = %v, want 1.3125", l)
	}
	if math.Abs(g.Data[0]-0.25) > 1e-12 { // d/n = 0.5/2
		t.Fatalf("quadratic-region grad = %v, want 0.25", g.Data[0])
	}
	if math.Abs(g.Data[1]-0.5) > 1e-12 { // delta/n = 1/2
		t.Fatalf("linear-region grad = %v, want 0.5", g.Data[1])
	}
}

func TestMAE(t *testing.T) {
	pred := mat.FromRows([][]float64{{1}, {5}})
	target := mat.FromRows([][]float64{{2}, {3}})
	if got := MAE(pred, target); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("MAE = %v, want 1.5", got)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - c||^2 for a fixed target c.
	p := NewParam("w", 1, 3)
	c := []float64{1.5, -2.0, 0.5}
	opt := NewAdam(0.05, 0)
	for i := 0; i < 2000; i++ {
		p.ZeroGrad()
		for j := range c {
			p.Grad.Data[j] = 2 * (p.Value.Data[j] - c[j])
		}
		opt.Step([]*Param{p})
	}
	for j, want := range c {
		if math.Abs(p.Value.Data[j]-want) > 1e-3 {
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
	opt.Step([]*Param{p})
	if p.Value.Data[0] != 3 {
		t.Fatalf("frozen param moved to %v", p.Value.Data[0])
	}
}

func TestAdamWeightDecayShrinks(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.Value.Data[0] = 10
	opt := NewAdam(0.01, 0.1)
	// Zero gradient: only decay acts.
	for i := 0; i < 100; i++ {
		p.ZeroGrad()
		opt.Step([]*Param{p})
	}
	if p.Value.Data[0] >= 10 {
		t.Fatalf("weight decay did not shrink weight: %v", p.Value.Data[0])
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.Value.Data[0] = 5
	opt := NewSGD(0.05, 0.9, 0)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		p.Grad.Data[0] = 2 * p.Value.Data[0]
		opt.Step([]*Param{p})
	}
	if math.Abs(p.Value.Data[0]) > 1e-3 {
		t.Fatalf("SGD did not converge: %v", p.Value.Data[0])
	}
}

func TestGradClip(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4
	GradClip([]*Param{p}, 1)
	if got := mat.Norm2(p.Grad.Data); math.Abs(got-1) > 1e-12 {
		t.Fatalf("clipped norm = %v, want 1", got)
	}
	// Below the threshold nothing changes.
	p.Grad.Data[0], p.Grad.Data[1] = 0.1, 0.1
	GradClip([]*Param{p}, 1)
	if p.Grad.Data[0] != 0.1 {
		t.Fatalf("grad changed below threshold: %v", p.Grad.Data[0])
	}
}

// TestGradClipIgnoresFrozen: a frozen parameter's gradient is never
// applied, so it must not enter the norm that scales the others' step —
// neither in GradClip nor in Adam's fused StepClipZero.
func TestGradClipIgnoresFrozen(t *testing.T) {
	build := func() (live, frozen *Param) {
		live, frozen = NewParam("live", 1, 2), NewParam("frozen", 1, 2)
		live.Grad.Data[0], live.Grad.Data[1] = 0.3, 0.4 // norm 0.5: under the cap
		frozen.Grad.Data[0] = 1000
		frozen.Frozen = true
		return live, frozen
	}
	live, frozen := build()
	GradClip([]*Param{live, frozen}, 1)
	if live.Grad.Data[0] != 0.3 || live.Grad.Data[1] != 0.4 {
		t.Fatalf("trainable gradient rescaled to %v by a frozen parameter's gradient", live.Grad.Data)
	}

	// The fused step moves the live weight exactly as it does alone.
	alone, _ := build()
	NewAdam(0.1, 0).StepClipZero([]*Param{alone}, 1)
	live, frozen = build()
	NewAdam(0.1, 0).StepClipZero([]*Param{live, frozen}, 1)
	for i, v := range live.Value.Data {
		if v != alone.Value.Data[i] {
			t.Fatalf("fused step with a frozen neighbour moved weight %d to %v, alone %v", i, v, alone.Value.Data[i])
		}
	}
}

// TestForwardRowsMatchesExpanded: ForwardRows/BackwardRows on distinct
// rows plus an occurrence index equal Forward/Backward on the expanded
// matrix — outputs and parameter gradients to 1e-12, with and without
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
			expanded := mat.NewDense(len(rows), 5)
			for i, r := range rows {
				copy(expanded.Row(i), x.Row(int(r)))
			}
			grad := randDense(rng, len(rows), 3)

			wantOut := want.Forward(nil, expanded, true)
			want.Backward(nil, grad)
			gotOut := got.ForwardRows(nil, x, rows, true)
			got.BackwardRows(nil, grad)
			if !gotOut.Equalish(wantOut, 1e-12) {
				t.Fatalf("%s dropout %v: ForwardRows differs from Forward on the expanded matrix", name, dropout)
			}
			wp := want.Params()
			for k, p := range got.Params() {
				if !p.Grad.Equalish(wp[k].Grad, 1e-12) {
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
// ReduceGrads folds the
// replica's gradient into the original's with the given weights, leaving
// the replica's zero.
func TestReplicaSharesValuesOwnsGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	spec := TwoLayerSpec{Name: "g", In: 6, Hidden: 5, Out: 3, ActHidden: SELU{}, ActOut: Tanh{},
		WithBias: true, Dropout: 0.25, Init: InitLeCun}
	net := spec.Build(rng)
	own := rand.New(rand.NewSource(9))
	rep := net.Replica(own)
	if d := rep.Layers[1].(*AlphaDropout); d.Rng != own || d.P != 0.25 {
		t.Fatalf("the replica's dropout layer has p=%v and not the generator it was given", d.P)
	}
	ps, rs := net.Params(), rep.Params()
	if len(ps) != len(rs) || len(net.Layers) != len(rep.Layers) {
		t.Fatalf("replica has %d parameters in %d layers, the original %d in %d", len(rs), len(rep.Layers), len(ps), len(net.Layers))
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

	want0 := ps[0].Grad.Clone()
	want1 := rs[0].Grad.Clone()
	ReduceGrads(ps, rs, 0.25, 0.75)
	for i, g := range ps[0].Grad.Data {
		if want := 0.25*want0.Data[i] + 0.75*want1.Data[i]; g != want {
			t.Fatalf("reduced gradient[%d] = %v, want %v", i, g, want)
		}
	}
	for _, p := range rs {
		for i, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("%s: replica gradient[%d] = %v after the reduction, want 0", p.Name, i, g)
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

func TestCosineAnnealingLR(t *testing.T) {
	s := CosineAnnealingLR{Low: 0.001, High: 0.1, Span: 100}
	if got := s.Rate(0); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("Rate(0) = %v, want 0.1", got)
	}
	if got := s.Rate(100); got != 0.001 {
		t.Fatalf("Rate(Span) = %v, want Low", got)
	}
	if s.Rate(25) <= s.Rate(75) {
		t.Fatal("cosine schedule is not decreasing")
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
	rng := rand.New(rand.NewSource(3))
	d := NewAlphaDropout(0.5, rng)
	x := randDense(rng, 4, 4)
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
	rng := rand.New(rand.NewSource(3))
	d := NewAlphaDropout(0.5, rng)
	x := randDense(rng, 4, 4)
	d.Forward(ws, x, true)
	if y := d.Forward(ws, x, false); y != x {
		t.Fatal("eval-mode dropout after a training pass is not identity")
	}
	g := randDense(rng, 4, 4)
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
	rng := rand.New(rand.NewSource(4))
	d := NewAlphaDropout(0.1, rng)
	// Standard-normal input; output should stay near zero mean, unit var.
	n := 200000
	x := mat.NewDense(1, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := d.Forward(ws, x, true)
	var mean float64
	for _, v := range y.Data {
		mean += v
	}
	mean /= float64(n)
	var varSum float64
	for _, v := range y.Data {
		varSum += (v - mean) * (v - mean)
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
	rng := rand.New(rand.NewSource(5))
	d := NewAlphaDropout(0.5, rng)
	x := randDense(rng, 2, 8)
	d.Forward(ws, x, true)
	g := mat.NewDense(2, 8)
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
	st := CaptureState(net.Params())
	// A second capture into a state of the same shapes reuses its
	// matrices; perturb, capture the perturbed values, then restore.
	spare := CaptureState(net.Params())
	held := spare["f.l1.W"]
	for _, p := range net.Params() {
		p.Value.Fill(99)
	}
	if spare = CaptureStateInto(spare, net.Params()); spare["f.l1.W"] != held || spare["f.l1.W"].At(0, 0) != 99 {
		t.Fatal("CaptureStateInto did not copy into the matrices it was given")
	}
	if err := RestoreState(net.Params(), st); err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Params() {
		if !p.Value.Equalish(st[p.Name], 0) {
			t.Fatalf("param %s not restored", p.Name)
		}
	}
}

func TestRestoreStateMissingParam(t *testing.T) {
	p := NewParam("a", 1, 1)
	if err := RestoreState([]*Param{p}, State{}); err == nil {
		t.Fatal("expected error for missing param")
	}
}

func TestRestoreStateShapeMismatch(t *testing.T) {
	p := NewParam("a", 1, 2)
	s := State{"a": mat.NewDense(2, 2)}
	if err := RestoreState([]*Param{p}, s); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestInitSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, scheme := range []InitScheme{InitHe, InitLeCun, InitXavier} {
		m := mat.NewDense(200, 100)
		InitDense(m, scheme, rng)
		var sum, sq float64
		for _, v := range m.Data {
			sum += v
			sq += v * v
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
		for _, gv := range g.Data {
			if math.Abs(gv) > 1.0/float64(n)+1e-12 {
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
	y := mat.NewDense(64, 1)
	for i := 0; i < 64; i++ {
		y.Data[i] = x.At(i, 0) + 2*x.At(i, 1)
	}
	opt := NewAdam(0.01, 0)
	loss := MSELoss{}
	first, _ := loss.Compute(ws, net.Forward(ws, x, false), y)
	for e := 0; e < 500; e++ {
		ZeroGrads(net.Params())
		pred := net.Forward(ws, x, true)
		_, g := loss.Compute(ws, pred, y)
		net.Backward(ws, g)
		opt.Step(net.Params())
	}
	last, _ := loss.Compute(ws, net.Forward(ws, x, false), y)
	if last > first/10 {
		t.Fatalf("training did not reduce loss: first=%v last=%v", first, last)
	}
}

func randDense(rng *rand.Rand, rows, cols int) *mat.Dense {
	m := mat.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkForwardBackwardTwoLayer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := TwoLayerSpec{
		Name: "b", In: 40, Hidden: 8, Out: 4,
		ActHidden: SELU{}, ActOut: SELU{}, WithBias: false, Init: InitLeCun,
	}.Build(rng)
	x := randDense(rng, 64, 40)
	target := randDense(rng, 64, 4)
	loss := MSELoss{}
	params := net.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset() // recycle the previous iteration's intermediates
		ZeroGrads(params)
		pred := net.Forward(ws, x, true)
		_, g := loss.Compute(ws, pred, target)
		net.Backward(ws, g)
	}
}
