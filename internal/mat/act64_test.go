package mat

import (
	"math"
	"math/rand"
	"testing"
)

// SELU constants as nn defines them.
const (
	testLambda      = 1.0507009873554805
	testLambdaAlpha = 1.0507009873554805 * 1.6732632423543772
)

// seluRef and tanhRef are the scalar references of the kernels.
func seluRef(x float64) float64 {
	if x > 0 {
		return testLambda * x
	}
	return testLambdaAlpha * math.Expm1(x)
}

func tanhRef(x float64) float64 { return math.Tanh(x) }

// seluGradRef is the scalar arm of nn's SELU backward epilogue.
func seluGradRef(g, y float64) float64 {
	if y > 0 {
		return g * testLambda
	}
	return g * (y + testLambdaAlpha)
}

// ulps is the distance between a and b in units in the last place: the
// count of float64 values between them, 0 for equal values (+0 and -0
// included) and for two NaNs, max for a NaN against a number.
func ulps(a, b float64) uint64 {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	ord := func(f float64) int64 {
		i := int64(math.Float64bits(f))
		if i < 0 {
			i = math.MinInt64 - i
		}
		return i
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// actEdgeInputs are the values the kernels' range reduction, clamp and
// sign handling are most likely to get wrong.
func actEdgeInputs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 1.5e-323, -2.2250738585072009e-308, 2.2250738585072014e-308, -1e-310,
		1e-300, -1e-300, 1e-17, -1e-17, 1e-9, -1e-9,
		0.3465, -0.3465, 0.3466, -0.3466, 0.34657359027997264, -0.34657359027997264,
		0.5, -0.5, 1, -1, 19.06, 19.1, -19.1, 20, -20, 22, 37.5, -37.5, 50, 354, -354, 355, 1e300, -1e300,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
	}
	for x := -707.0; x >= -746; x-- {
		xs = append(xs, x, x-0.5)
	}
	return xs
}

// actInputs returns n values: the edge inputs, then seeded draws over
// both branches and every magnitude the reduction sees.
func actInputs(n int, seed int64) []float64 {
	xs := actEdgeInputs()
	rng := rand.New(rand.NewSource(seed))
	for len(xs) < n {
		switch len(xs) % 3 {
		case 0:
			xs = append(xs, rng.Float64()*60-30)
		case 1:
			xs = append(xs, rng.NormFloat64()*2)
		default:
			// Log-uniform magnitudes 1e-20..1e3 with either sign.
			x := math.Pow(10, rng.Float64()*23-20)
			if rng.Intn(2) == 0 {
				x = -x
			}
			xs = append(xs, x)
		}
	}
	return xs[:n]
}

// TestActKernelsMatchScalar holds the f64 activation kernels to their
// scalar references over a vector, in the idiom of an element-wise
// equivalence test: SELU within 2 ulp of lambdaAlpha*math.Expm1 (lambda*x
// exactly on the positive side), tanh within 2 ulp of math.Tanh, NaN in
// NaN out, and the SELU gradient bit-equal to the scalar formula. Every
// length 1..67 runs every value through the 4-lane body and the ragged
// tail, and a value's result may not depend on where it sits.
func TestActKernelsMatchScalar(t *testing.T) {
	if !hasAsm {
		t.Skip("no asm family on this build or CPU")
	}
	type kernel struct {
		name string
		ref  func(float64) float64
		run  func([]float64)
	}
	kernels := []kernel{
		{"selu", seluRef, func(v []float64) { Selu64(v, testLambda, testLambdaAlpha) }},
		{"tanh", tanhRef, Tanh64},
	}
	worst := map[string]uint64{}
	check := func(name string, x, got, want float64) {
		t.Helper()
		d := ulps(got, want)
		if d > 2 {
			t.Fatalf("%s(%v [%#x]) = %v, scalar %v: %d ulp apart", name, x, math.Float64bits(x), got, want, d)
		}
		worst[name] = max(worst[name], d)
	}
	defer func() { t.Logf("worst distance from the scalar reference, in ulp: %v", worst) }()

	// Every input alone: the reference value of each element.
	xs := actInputs(200000, 1)
	single := make(map[string][]float64)
	for _, k := range kernels {
		out := make([]float64, len(xs))
		for i, x := range xs {
			v := []float64{x}
			k.run(v)
			check(k.name, x, v[0], k.ref(x))
			out[i] = v[0]
		}
		single[k.name] = out
	}
	// Whole vectors: the same bits as the lone element.
	for _, k := range kernels {
		v := append([]float64(nil), xs...)
		k.run(v)
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(single[k.name][i]) && !math.IsNaN(v[i]) {
				t.Fatalf("%s: element %d (%v) is %v in a vector of %d, %v alone", k.name, i, xs[i], v[i], len(v), single[k.name][i])
			}
		}
	}
	// Every length 1..67 at every offset into the edge inputs.
	edges := actEdgeInputs()
	for n := 1; n <= 67; n++ {
		for off := 0; off+n <= len(edges); off += 7 {
			for _, k := range kernels {
				v := append([]float64(nil), edges[off:off+n]...)
				k.run(v)
				for i, got := range v {
					check(k.name, edges[off+i], got, k.ref(edges[off+i]))
				}
			}
		}
	}

	// The gradient: bit-equal over outputs of both branches, zeros, NaN.
	ys := append([]float64(nil), xs...)
	Selu64(ys, testLambda, testLambdaAlpha)
	rng := rand.New(rand.NewSource(2))
	gs := make([]float64, len(ys))
	for i := range gs {
		gs[i] = rng.NormFloat64()
	}
	gs[0] = math.NaN()
	for n := 1; n <= 67; n++ {
		dst := make([]float64, n)
		SeluGrad64(dst, gs[:n], ys[len(ys)-n:], testLambda, testLambdaAlpha)
		for i, got := range dst {
			want := seluGradRef(gs[i], ys[len(ys)-n+i])
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("n=%d: SeluGrad64[%d](g=%v, y=%v) = %v, scalar %v", n, i, gs[i], ys[len(ys)-n+i], got, want)
			}
		}
	}
	dst := make([]float64, len(ys))
	SeluGrad64(dst, gs, ys, testLambda, testLambdaAlpha)
	for i, got := range dst {
		if want := seluGradRef(gs[i], ys[i]); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("SeluGrad64[%d](g=%v, y=%v) = %v, scalar %v", i, gs[i], ys[i], got, want)
		}
	}
}

// BenchmarkActivation64 times the f64 activations per element over a
// layer-sized vector: the scalar loops of the plain family (math.Exp,
// math.Tanh, the branchy gradient) against the asm family's kernels.
func BenchmarkActivation64(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.NormFloat64() * 2
	}
	v := make([]float64, n)
	g := make([]float64, n)
	dst := make([]float64, n)
	copy(g, src)
	y := append([]float64(nil), src...)
	for i, x := range y {
		y[i] = seluRef(x)
	}
	run := func(name string, vector bool, f func()) {
		b.Run(name, func(b *testing.B) {
			if vector && !hasAsm {
				b.Skip("no asm family on this build or CPU")
			}
			for i := 0; i < b.N; i++ {
				copy(v, src)
				f()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
	run("scalar/selu", false, func() {
		for i, x := range v {
			if x > 0 {
				v[i] = testLambda * x
			} else {
				v[i] = testLambdaAlpha * (math.Exp(x) - 1)
			}
		}
	})
	run("vector/selu", true, func() { Selu64(v, testLambda, testLambdaAlpha) })
	run("scalar/tanh", false, func() {
		for i, x := range v {
			v[i] = math.Tanh(x)
		}
	})
	run("vector/tanh", true, func() { Tanh64(v) })
	run("scalar/selugrad", false, func() {
		for i, gi := range g {
			dst[i] = seluGradRef(gi, y[i])
		}
	})
	run("vector/selugrad", true, func() { SeluGrad64(dst, g, y, testLambda, testLambdaAlpha) })
}
