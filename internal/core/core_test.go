package core

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/nn"
)

// testConfig returns a config with drastically reduced epoch counts so
// the suite stays fast while exercising the full code paths.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 60
	cfg.FinetuneEpochs = 250
	cfg.FinetunePatience = 100
	cfg.UnfreezeAfterPerSample = 10
	return cfg
}

// syntheticSamples builds samples from an Ernest-style ground truth with
// two distinct contexts that scale the curve differently.
func syntheticSamples(contexts int, scaleOuts []int) []Sample {
	var out []Sample
	for c := 0; c < contexts; c++ {
		factor := 1 + 0.5*float64(c)
		node := []string{"m4.xlarge", "r4.2xlarge", "c4.2xlarge"}[c%3]
		size := 10000 + c*4000
		for _, x := range scaleOuts {
			fx := float64(x)
			runtime := factor * (30 + 400/fx + 10*math.Log(fx) + 1.2*fx)
			out = append(out, Sample{
				ScaleOut: x,
				Essential: []encoding.Property{
					{Name: "dataset_size_mb", Value: strconv.Itoa(size)},
					{Name: "dataset_characteristics", Value: "uniform"},
					{Name: "job_parameters", Value: "--iterations 100"},
					{Name: "node_type", Value: node},
				},
				Optional: []encoding.Property{
					{Name: "memory_mb", Value: "16384", Optional: true},
					{Name: "cpu_cores", Value: "4", Optional: true},
					{Name: "job_name", Value: "sgd", Optional: true},
				},
				RuntimeSec: runtime,
			})
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.EncodingDim = 50
	if err := bad.Validate(); err == nil {
		t.Fatal("EncodingDim >= PropertySize not rejected")
	}
	bad = DefaultConfig()
	bad.NumEssential = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero essential properties not rejected")
	}
	bad = DefaultConfig()
	bad.Dropout = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("dropout out of range not rejected")
	}
}

func TestCombinedDim(t *testing.T) {
	cfg := DefaultConfig()
	// F + (m+1)*M = 8 + 5*4 = 28.
	if got := cfg.CombinedDim(); got != 28 {
		t.Fatalf("CombinedDim = %d, want 28", got)
	}
}

func TestNewModelParamCounts(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// f: 3x16+16 + 16x8+8, g: 40x8 + 8x4 (no bias), h: 4x8 + 8x40,
	// z: 28x8+8 + 8x1+1.
	want := (3*16 + 16 + 16*8 + 8) + (40*8 + 8*4) + (4*8 + 8*40) + (28*8 + 8 + 8 + 1)
	if got := nn.CountParams(m.Params()); got != want {
		t.Fatalf("param count = %d, want %d", got, want)
	}
}

func TestScaleOutFeatures(t *testing.T) {
	f := ScaleOutFeatures(4)
	if math.Abs(f[0]-0.25) > 1e-12 || math.Abs(f[1]-math.Log(4)) > 1e-12 || f[2] != 4 {
		t.Fatalf("ScaleOutFeatures(4) = %v", f)
	}
}

func TestMinMaxNormalizer(t *testing.T) {
	n := FitMinMax([][]float64{{1, 10}, {3, 20}, {2, 15}})
	got := n.Transform([]float64{2, 15})
	if math.Abs(got[0]-0.5) > 1e-12 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Fatalf("Transform = %v, want [0.5 0.5]", got)
	}
	// Out-of-range extrapolates beyond (0,1).
	got = n.Transform([]float64{5, 10})
	if got[0] <= 1 {
		t.Fatalf("extrapolation failed: %v", got)
	}
	// Constant feature maps to 0.5.
	n2 := FitMinMax([][]float64{{7}, {7}})
	if got := n2.Transform([]float64{7}); got[0] != 0.5 {
		t.Fatalf("constant feature -> %v, want 0.5", got[0])
	}
}

func TestTargetScaler(t *testing.T) {
	s := FitTargetScaler([]float64{100, 200, 300})
	if s.Scale != 200 {
		t.Fatalf("Scale = %v, want 200", s.Scale)
	}
	if got := s.ToSeconds(s.ToScaled(150)); math.Abs(got-150) > 1e-12 {
		t.Fatalf("round trip = %v, want 150", got)
	}
	if FitTargetScaler(nil).Scale != 1 {
		t.Fatal("empty scaler should default to 1")
	}
}

func TestPretrainReducesError(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(3, []int{2, 4, 6, 8, 10, 12})
	before := m.evalMAEForTest(samples)
	rep, err := m.Pretrain(samples)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Pretrained() {
		t.Fatal("Pretrained() false after Pretrain")
	}
	if rep.BestMAE >= before {
		t.Fatalf("pre-training did not improve MAE: before=%v best=%v", before, rep.BestMAE)
	}
	if rep.Epochs != cfg.PretrainEpochs {
		t.Fatalf("epochs = %d, want %d", rep.Epochs, cfg.PretrainEpochs)
	}
	// 18 samples x 7 properties; 3 sizes, 3 node types and 5 constants.
	if rep.PropertyRows != 126 || rep.DistinctProperties != 11 {
		t.Fatalf("report counts %d property rows, %d distinct; want 126, 11", rep.PropertyRows, rep.DistinctProperties)
	}
}

// evalMAEForTest is the runtime MAE in seconds over samples, after
// establishing normalization (which Pretrain normally does); used to
// compare before/after.
func (m *Model) evalMAEForTest(samples []Sample) float64 {
	feats := make([][]float64, len(samples))
	runtimes := make([]float64, len(samples))
	for i, s := range samples {
		feats[i] = ScaleOutFeatures(s.ScaleOut)
		runtimes[i] = s.RuntimeSec
	}
	m.norm = FitMinMax(feats)
	m.target = FitTargetScaler(runtimes)
	var b batch
	m.fillBatch(&b, samples, nil)
	return m.evalMAEBatch(&b)
}

func TestPretrainRejectsBadSamples(t *testing.T) {
	m, _ := New(testConfig())
	if _, err := m.Pretrain(nil); err == nil {
		t.Fatal("empty corpus not rejected")
	}
	bad := syntheticSamples(1, []int{2})
	bad[0].ScaleOut = -1
	if _, err := m.Pretrain(bad); err == nil {
		t.Fatal("negative scale-out not rejected")
	}
	bad = syntheticSamples(1, []int{2})
	bad[0].Essential = bad[0].Essential[:2]
	if _, err := m.Pretrain(bad); err == nil {
		t.Fatal("wrong essential count not rejected")
	}
	// NaN and +Inf pass a bare "<= 0" test; at the parent of the shared
	// rule a NaN corpus trained to a NaN BestMAE with a nil error.
	for _, rt := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = syntheticSamples(1, []int{2, 4})
		bad[1].RuntimeSec = rt
		if _, err := m.Pretrain(bad); err == nil {
			t.Fatalf("runtime %v not rejected", rt)
		}
		if err := ValidateSample(m.Cfg, bad[1]); err == nil {
			t.Fatalf("ValidateSample accepted runtime %v", rt)
		}
	}
}

func TestFinetuneLocalFitsContext(t *testing.T) {
	cfg := testConfig()
	cfg.FinetuneEpochs = 800
	cfg.FinetunePatience = 400
	samples := syntheticSamples(1, []int{2, 4, 6, 8, 10, 12})
	m, rep, err := FitLocal(cfg, samples, FinetuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs == 0 {
		t.Fatal("no epochs executed")
	}
	// The fitted model should track the training curve reasonably.
	mre := 0.0
	for _, s := range samples {
		pred, err := m.Predict(s.ScaleOut, s.Essential, s.Optional)
		if err != nil {
			t.Fatal(err)
		}
		mre += math.Abs(pred-s.RuntimeSec) / s.RuntimeSec
	}
	mre /= float64(len(samples))
	if mre > 0.2 {
		t.Fatalf("local fit MRE = %v, want < 0.2", mre)
	}
}

func TestFinetuneAutoEncoderFrozen(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(2, []int{2, 4, 6, 8})
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	gBefore := nn.CaptureState(m.componentParams("g"))
	hBefore := nn.CaptureState(m.componentParams("h"))
	ctxSamples := syntheticSamples(1, []int{4, 8})
	if _, err := m.Finetune(ctxSamples, FinetuneOptions{Strategy: StrategyPartialUnfreeze, MaxEpochs: 50}); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.componentParams("g") {
		if !p.Value.Equalish(gBefore[p.Name], 0) {
			t.Fatalf("encoder param %s changed during fine-tuning", p.Name)
		}
	}
	for _, p := range m.componentParams("h") {
		if !p.Value.Equalish(hBefore[p.Name], 0) {
			t.Fatalf("decoder param %s changed during fine-tuning", p.Name)
		}
	}
}

func TestFinetunePartialUnfreezeDelaysF(t *testing.T) {
	cfg := testConfig()
	cfg.UnfreezeAfterPerSample = 1000 // never reached within MaxEpochs
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(2, []int{2, 4, 6, 8})
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	fBefore := nn.CaptureState(m.componentParams("f"))
	if _, err := m.Finetune(samples[:4], FinetuneOptions{Strategy: StrategyPartialUnfreeze, MaxEpochs: 30}); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.componentParams("f") {
		if !p.Value.Equalish(fBefore[p.Name], 0) {
			t.Fatalf("f param %s changed before unfreeze epoch", p.Name)
		}
	}
}

func TestFinetuneFullUnfreezeMovesF(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(2, []int{2, 4, 6, 8})
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	fBefore := nn.CaptureState(m.componentParams("f"))
	if _, err := m.Finetune(samples[:4], FinetuneOptions{Strategy: StrategyFullUnfreeze, MaxEpochs: 60, Patience: 60}); err != nil {
		t.Fatal(err)
	}
	moved := false
	for _, p := range m.componentParams("f") {
		if !p.Value.Equalish(fBefore[p.Name], 1e-12) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("full-unfreeze did not move f")
	}
}

func TestFinetuneResetStrategies(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(2, []int{2, 4, 6, 8})
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	zBefore := nn.CaptureState(m.componentParams("z"))
	clone, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Partial reset must re-initialize z (weights differ immediately).
	clone.applyStrategy(StrategyPartialReset, 4)
	changed := false
	for _, p := range clone.componentParams("z") {
		if p.Value.Rows > 1 && !p.Value.Equalish(zBefore[p.Name], 1e-12) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("partial-reset did not re-initialize z")
	}
	// Full reset additionally re-initializes f.
	clone2, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	fBefore := nn.CaptureState(clone2.componentParams("f"))
	clone2.applyStrategy(StrategyFullReset, 4)
	changed = false
	for _, p := range clone2.componentParams("f") {
		if p.Value.Rows > 1 && !p.Value.Equalish(fBefore[p.Name], 1e-12) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("full-reset did not re-initialize f")
	}
}

func TestFinetuneEarlyStopOnTarget(t *testing.T) {
	cfg := testConfig()
	cfg.FinetuneTargetMAE = 1e9 // absurdly easy target: stop at epoch 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(1, []int{2, 4, 6})
	rep, err := m.Finetune(samples, FinetuneOptions{Strategy: StrategyLocal})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 1 {
		t.Fatalf("epochs = %d, want 1 (immediate target hit)", rep.Epochs)
	}
}

func TestPredictValidation(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := syntheticSamples(1, []int{2})[0]
	if _, err := m.Predict(0, s.Essential, s.Optional); err == nil {
		t.Fatal("zero scale-out not rejected")
	}
	if _, err := m.Predict(4, s.Essential[:1], s.Optional); err == nil {
		t.Fatal("wrong essential count not rejected")
	}
	long := append(append([]encoding.Property{}, s.Optional...), s.Optional...)
	if _, err := m.Predict(4, s.Essential, long); err == nil {
		t.Fatal("too many optional properties not rejected")
	}
	if _, err := m.Predict(4, s.Essential, nil); err != nil {
		t.Fatalf("missing optional properties should be allowed: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(2, []int{2, 4, 6, 8})
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Pretrained() {
		t.Fatal("pretrained flag lost")
	}
	s := samples[0]
	a, err := m.Predict(s.ScaleOut, s.Essential, s.Optional)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m2.Predict(s.ScaleOut, s.Essential, s.Optional)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("predictions diverge after round trip: %v vs %v", a, b)
	}
}

func TestSaveLoadFile(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.bin"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file not reported")
	}
}

func TestCloneIndependence(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not affect the original.
	for _, p := range c.Params() {
		p.Value.Fill(42)
	}
	for _, p := range m.Params() {
		if p.Value.At(0, 0) == 42 {
			t.Fatal("clone shares storage with original")
		}
	}
}

func TestPropertyCodesShape(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	props := []encoding.Property{
		{Name: "node_type", Value: "m4.2xlarge"},
		{Name: "job_parameters", Value: "--iterations 25"},
		{Name: "dataset_size_mb", Value: "19353"},
	}
	if codes := m.PropertyCodes(nil); codes == nil || len(codes) != 0 {
		t.Fatalf("codes of no properties = %v, want an empty slice", codes)
	}
	codes := m.PropertyCodes(props)
	if len(codes) != 3 {
		t.Fatalf("codes = %d rows, want 3", len(codes))
	}
	for i, c := range codes {
		if len(c) != m.Cfg.EncodingDim {
			t.Fatalf("code %d has dim %d, want %d", i, len(c), m.Cfg.EncodingDim)
		}
	}
	// Different contexts get different codes (Fig. 4's premise).
	other := m.PropertyCodes([]encoding.Property{
		{Name: "node_type", Value: "r4.2xlarge"},
		{Name: "job_parameters", Value: "--iterations 100"},
		{Name: "dataset_size_mb", Value: "14540"},
	})
	identical := true
	for i := range codes {
		for j := range codes[i] {
			if codes[i][j] != other[i][j] {
				identical = false
			}
		}
	}
	if identical {
		t.Fatal("distinct contexts produced identical codes")
	}
}

func TestReconstructionErrorDropsWithPretraining(t *testing.T) {
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(3, []int{2, 4, 6, 8, 10, 12})
	var props []encoding.Property
	for _, s := range samples[:6] {
		props = append(props, s.Essential...)
	}
	if e := m.ReconstructionError(nil); e != 0 {
		t.Fatalf("reconstruction error over no properties = %v, want 0", e)
	}
	before := m.ReconstructionError(props)
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	after := m.ReconstructionError(props)
	if after >= before {
		t.Fatalf("reconstruction error did not improve: before=%v after=%v", before, after)
	}
}

func TestContextPredictorInterface(t *testing.T) {
	var _ baselines.Predictor = (*ContextPredictor)(nil)

	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := syntheticSamples(2, []int{2, 4, 6, 8, 10, 12})
	if _, err := m.Pretrain(samples); err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	cp := NewContextPredictor(m, s.Essential, s.Optional, FinetuneOptions{MaxEpochs: 50, Patience: 50})

	// Zero-shot: a pre-trained model is usable without any points.
	if err := cp.Fit(nil); err != nil {
		t.Fatalf("zero-shot Fit on pre-trained model: %v", err)
	}
	if _, err := cp.Predict(6); err != nil {
		t.Fatal(err)
	}

	// With points it fine-tunes.
	pts := []baselines.Point{{ScaleOut: 2, Runtime: s.RuntimeSec}, {ScaleOut: 8, Runtime: 200}}
	if err := cp.Fit(pts); err != nil {
		t.Fatal(err)
	}
	if cp.Report == nil || cp.Report.Epochs == 0 {
		t.Fatal("fit report missing")
	}
}

func TestContextPredictorUnpretrainedNeedsData(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := syntheticSamples(1, []int{2})[0]
	cp := NewContextPredictor(m, s.Essential, s.Optional, FinetuneOptions{Strategy: StrategyLocal})
	if err := cp.Fit(nil); err != baselines.ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
	if _, err := cp.Predict(4); err != baselines.ErrNotFitted {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
}

func TestSamplesFromExecutions(t *testing.T) {
	ds := dataset.GenerateC3O(dataset.SimConfig{Seed: 1, Repeats: 1})
	execs := ds.ForJob("sgd")[:5]
	samples := SamplesFromExecutions(execs)
	if len(samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(samples))
	}
	for i, s := range samples {
		if s.ScaleOut != execs[i].ScaleOut || s.RuntimeSec != execs[i].RuntimeSec {
			t.Fatalf("sample %d mismatch", i)
		}
		if len(s.Essential) != 4 || len(s.Optional) != 3 {
			t.Fatalf("sample %d property counts = %d/%d", i, len(s.Essential), len(s.Optional))
		}
	}
}

func TestPretrainedBeatsLocalOnSparseContext(t *testing.T) {
	// The paper's central claim in miniature: with 2 training points in a
	// new context, a model pre-trained on sibling contexts interpolates
	// better than one trained from scratch.
	cfg := testConfig()
	cfg.PretrainEpochs = 150
	corpus := syntheticSamples(4, []int{2, 4, 6, 8, 10, 12})

	// Target context: factor differs from all pre-training contexts.
	target := func(x int) float64 {
		fx := float64(x)
		return 1.25 * (30 + 400/fx + 10*math.Log(fx) + 1.2*fx)
	}
	ess := []encoding.Property{
		{Name: "dataset_size_mb", Value: "15000"},
		{Name: "dataset_characteristics", Value: "skewed"},
		{Name: "job_parameters", Value: "--iterations 50"},
		{Name: "node_type", Value: "m4.2xlarge"},
	}
	var ctxSamples []Sample
	for _, x := range []int{2, 10} {
		ctxSamples = append(ctxSamples, Sample{ScaleOut: x, Essential: ess, RuntimeSec: target(x)})
	}

	pre, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Pretrain(corpus); err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Finetune(ctxSamples, FinetuneOptions{Strategy: StrategyPartialUnfreeze, MaxEpochs: 300, Patience: 150}); err != nil {
		t.Fatal(err)
	}

	local, _, err := FitLocal(cfg, ctxSamples, FinetuneOptions{MaxEpochs: 300, Patience: 150})
	if err != nil {
		t.Fatal(err)
	}

	// Interpolation test at x=6.
	preErr := predictionError(t, pre, ess, 6, target(6))
	localErr := predictionError(t, local, ess, 6, target(6))
	if preErr > localErr*1.5 {
		t.Fatalf("pre-trained interpolation error %v much worse than local %v", preErr, localErr)
	}
}

func predictionError(t *testing.T, m *Model, ess []encoding.Property, x int, want float64) float64 {
	t.Helper()
	got, err := m.Predict(x, ess, nil)
	if err != nil {
		t.Fatal(err)
	}
	return math.Abs(got-want) / want
}

func BenchmarkPretrainEpoch(b *testing.B) {
	cfg := testConfig()
	cfg.PretrainEpochs = 1
	samples := syntheticSamples(4, []int{2, 4, 6, 8, 10, 12})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Pretrain(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFinetune6Points(b *testing.B) {
	cfg := testConfig()
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	samples := syntheticSamples(2, []int{2, 4, 6, 8, 10, 12})
	if _, err := m.Pretrain(samples); err != nil {
		b.Fatal(err)
	}
	ctx := samples[:6]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := m.Clone()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Finetune(ctx, FinetuneOptions{Strategy: StrategyPartialUnfreeze, MaxEpochs: 100, Patience: 100}); err != nil {
			b.Fatal(err)
		}
	}
}
