package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/nn"
)

// goldenQueries spans the scale-out grid and both seen and unseen
// contexts, so the round-trip check covers interpolation and
// extrapolation inputs alike.
func goldenQueries() []Query {
	var out []Query
	for _, contexts := range []int{1, 2} {
		samples := syntheticSamples(contexts, []int{2, 4, 6, 8, 10, 12})
		for _, s := range samples[:6] {
			out = append(out, Query{ScaleOut: s.ScaleOut, Essential: s.Essential, Optional: s.Optional})
		}
	}
	// Unseen scale-outs (extrapolation) on the first context.
	s := syntheticSamples(1, []int{2})[0]
	for _, x := range []int{1, 3, 16, 24} {
		out = append(out, Query{ScaleOut: x, Essential: s.Essential, Optional: s.Optional})
	}
	return out
}

// TestGoldenRoundTripBitIdentical is the reference-output check of the
// serialization format: a model trained with a fixed seed must produce
// bit-identical predictions after save -> load, across the whole query
// grid. Any silent change to the wire format, the restore path, or the
// inference graph breaks this test.
func TestGoldenRoundTripBitIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainEpochs = 30
	cfg.Seed = 12345
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Pretrain(syntheticSamples(3, []int{2, 4, 6, 8, 10, 12})); err != nil {
		t.Fatalf("Pretrain: %v", err)
	}

	queries := goldenQueries()
	want, err := m.PredictBatch(queries)
	if err != nil {
		t.Fatalf("PredictBatch before save: %v", err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got, err := loaded.PredictBatch(queries)
	if err != nil {
		t.Fatalf("PredictBatch after load: %v", err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d: loaded model predicts %.17g, original %.17g (bit patterns %x vs %x)",
				i, got[i], want[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestRoundTripSurvivesSecondGeneration chains save -> load -> save ->
// load and checks the grandchild still predicts bit-identically:
// nothing is lost or re-derived between generations.
func TestRoundTripSurvivesSecondGeneration(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainEpochs = 20
	cfg.Seed = 7
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Pretrain(syntheticSamples(2, []int{2, 4, 6, 8})); err != nil {
		t.Fatalf("Pretrain: %v", err)
	}
	queries := goldenQueries()
	want, err := m.PredictBatch(queries)
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}

	gen := m
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := gen.Save(&buf); err != nil {
			t.Fatalf("generation %d Save: %v", i, err)
		}
		gen, err = Load(&buf)
		if err != nil {
			t.Fatalf("generation %d Load: %v", i, err)
		}
	}
	got, err := gen.PredictBatch(queries)
	if err != nil {
		t.Fatalf("grandchild PredictBatch: %v", err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d drifted across generations: %.17g vs %.17g", i, got[i], want[i])
		}
	}
}

// TestPredictBatchMatchesPredict checks the batched inference path
// against the single-query path: one forward pass over B rows must give
// the same answers as B separate passes.
func TestPredictBatchMatchesPredict(t *testing.T) {
	cfg := testConfig()
	cfg.PretrainEpochs = 20
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Pretrain(syntheticSamples(2, []int{2, 4, 6, 8, 10, 12})); err != nil {
		t.Fatalf("Pretrain: %v", err)
	}
	queries := goldenQueries()
	batch, err := m.PredictBatch(queries)
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	for i, q := range queries {
		single, err := m.Predict(q.ScaleOut, q.Essential, q.Optional)
		if err != nil {
			t.Fatalf("Predict %d: %v", i, err)
		}
		if diff := math.Abs(single - batch[i]); diff > 1e-9*math.Abs(single) {
			t.Fatalf("query %d: batch %v != single %v", i, batch[i], single)
		}
	}
}

// TestPredictBatchValidation mirrors Predict's input checking.
func TestPredictBatchValidation(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	good := goldenQueries()[0]
	bad := []Query{
		{ScaleOut: 0, Essential: good.Essential, Optional: good.Optional},
		{ScaleOut: 4, Essential: good.Essential[:2], Optional: good.Optional},
	}
	for i, q := range bad {
		if _, err := m.PredictBatch([]Query{good, q}); err == nil {
			t.Fatalf("PredictBatch accepted invalid query %d", i)
		}
	}
	if out, err := m.PredictBatch(nil); err != nil || out != nil {
		t.Fatalf("PredictBatch(nil) = %v, %v; want nil, nil", out, err)
	}
}

// smallConfig is a model small enough that its saved bytes (~1.3 KB)
// make a cheap golden file and fuzz seed.
func smallConfig() Config {
	cfg := testConfig()
	cfg.PropertySize, cfg.EncodingDim, cfg.EncoderHidden = 6, 2, 3
	cfg.ScaleOutHidden, cfg.ScaleOutDim, cfg.PredictorHidden = 3, 2, 3
	cfg.PretrainEpochs = 5
	cfg.Seed = 2021
	return cfg
}

// smallModel is smallConfig pre-trained on three contexts and fine-tuned
// on three samples of the first: every field of the format is set.
func smallModel(t testing.TB) *Model {
	t.Helper()
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Pretrain(syntheticSamples(3, []int{2, 4, 6, 8, 10, 12})); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finetune(syntheticSamples(1, []int{2, 4, 6}), FinetuneOptions{MaxEpochs: 5}); err != nil {
		t.Fatal(err)
	}
	return m
}

var updateGolden = flag.Bool("update", false, "rewrite "+goldenModelPath+" from smallModel and log its predictions")

const goldenModelPath = "testdata/model-v1.bin"

// goldenPredictions are the answers of testdata/model-v1.bin on
// goldenQueries(), as written by -update.
var goldenPredictions = []float64{
	185.64501561471752,
	174.29673077810543,
	169.414891617522,
	165.32969423040933,
	162.10167449573538,
	159.56645737675146,
	185.64501561471752,
	174.29673077810543,
	169.414891617522,
	165.32969423040933,
	162.10167449573538,
	159.56645737675146,
	178.86281309737188,
	180.680849874905,
	155.96738431839236,
	152.4301155682573,
}

// TestModelV1Golden is the reference vector of format v1: a committed
// model file must decode, answer goldenQueries() with the pinned values,
// and encode back to the same bytes. Training does not run, so the file
// stays valid when trained bits change; a change to the format or to
// the inference graph does not. The tolerance covers platforms whose
// kernels round differently in the last bits (the Go compiler fuses
// multiply-adds on arm64).
func TestModelV1Golden(t *testing.T) {
	if *updateGolden {
		m := smallModel(t)
		if err := m.SaveFile(goldenModelPath); err != nil {
			t.Fatal(err)
		}
		got, err := m.PredictBatch(goldenQueries())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, v := range got {
			fmt.Fprintf(&b, "\t%s,\n", strconv.FormatFloat(v, 'g', -1, 64))
		}
		t.Logf("wrote %s; goldenPredictions:\n%s", goldenModelPath, b.String())
	}
	raw, err := os.ReadFile(goldenModelPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeModel(raw)
	if err != nil {
		t.Fatalf("decoding %s: %v", goldenModelPath, err)
	}
	if !m.Pretrained() || m.FinetuneSamples() != 3 || !m.norm.Fitted() {
		t.Fatalf("golden model decoded as pretrained=%v, finetune samples %d, normalizer fitted %v; want true, 3, true",
			m.Pretrained(), m.FinetuneSamples(), m.norm.Fitted())
	}
	got, err := m.PredictBatch(goldenQueries())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(goldenPredictions) {
		t.Fatalf("%d predictions, %d pinned", len(got), len(goldenPredictions))
	}
	for i, want := range goldenPredictions {
		if math.Abs(got[i]-want) > 1e-12*math.Abs(want) {
			t.Fatalf("query %d: golden model predicts %.17g, pinned %.17g", i, got[i], want)
		}
	}
	if !bytes.Equal(m.encode(), raw) {
		t.Fatal("the golden model does not encode back to its own bytes")
	}
}

// pretrainCRC pins the CRC32C trailer of the bytes pretrainShards(t, 3)
// saves — a fixed-seed 30-epoch Pretrain — per GOARCH and kernel family.
// The families train different bits: their GEMMs sum in different
// orders, and asm's activations are the 4-lane kernels. A change that
// moves trained bits updates the constant of each family it moves and
// says so.
var pretrainCRC = map[string]uint32{
	"amd64/asm":   0x8c0cdcc4,
	"amd64/plain": 0x83c52671,
}

// crc32cResidue is what CRC32C computes over any bytes that end in their
// own little-endian CRC32C: a pin equal to it pins nothing.
const crc32cResidue = 0x48674bc7

func TestPretrainBytesPinned(t *testing.T) {
	key := runtime.GOARCH + "/" + mat.KernelFamily()
	want, ok := pretrainCRC[key]
	m, _ := pretrainShards(t, 3)
	if m == nil {
		t.FailNow()
	}
	raw := m.encode()
	if sum := crc32.Checksum(raw, castagnoli); sum != crc32cResidue {
		t.Fatalf("CRC32C over the saved bytes is %#08x, not the residue %#08x: the trailer is not the body's CRC32C", sum, crc32cResidue)
	}
	got := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if !ok {
		t.Skipf("no trailer pinned for %s (its bytes end in CRC32C %#08x); pinned: amd64/asm, amd64/plain", key, got)
	}
	for k, pin := range pretrainCRC {
		if pin == crc32cResidue {
			t.Fatalf("%s is pinned to the CRC32C residue, which every saved model checks to", k)
		}
	}
	if got != want {
		t.Fatalf("%s: a fixed-seed Pretrain saves bytes with CRC32C trailer %#08x, pinned %#08x: trained bits changed", key, got, want)
	}
}

// TestConfigRoundTripsEveryField sets every Config field to a value
// other than its default and round-trips it: a field the format does not
// carry comes back as its zero value and fails here.
func TestConfigRoundTripsEveryField(t *testing.T) {
	cfg := DefaultConfig()
	v := reflect.ValueOf(&cfg).Elem()
	if n := len(cfg.wireFields()); n != v.NumField() {
		t.Fatalf("format v1 carries %d Config fields, Config has %d", n, v.NumField())
	}
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.125)
		case reflect.String:
			f.SetString("tanh")
		default:
			t.Fatalf("Config.%s is a %v: teach the model format (wireFields) and this test to carry it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeModel(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	gv := reflect.ValueOf(got.Cfg)
	for i := 0; i < v.NumField(); i++ {
		if !gv.Field(i).Equal(v.Field(i)) {
			t.Errorf("Config.%s = %v after a round trip, saved %v", v.Type().Field(i).Name, gv.Field(i), v.Field(i))
		}
	}
}

// TestParamCountMatchesNew: the weight count the decoder checks a config
// against before New runs is the count New builds.
func TestParamCountMatchesNew(t *testing.T) {
	odd := DefaultConfig()
	odd.NumEssential, odd.NumOptional, odd.EncodingDim, odd.ScaleOutHidden = 7, 0, 5, 9
	for _, cfg := range []Config{DefaultConfig(), smallConfig(), odd} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cfg.paramCount(), int64(nn.CountParams(m.Params())); got != want {
			t.Fatalf("paramCount = %d, New builds %d weights", got, want)
		}
	}
}

// withChecksum returns body followed by its CRC32C: the bytes of an
// edited model image that the checksum no longer rejects.
func withChecksum(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// edited returns a copy of the model image b with edit applied to its
// body and the checksum redone.
func edited(b []byte, edit func(body []byte) []byte) []byte {
	return withChecksum(edit(append([]byte(nil), b[:len(b)-4]...)))
}

// Offsets into a format v1 image of smallConfig (Activation "selu").
const (
	headerLen = len(modelMagic) + 1
	actOff    = headerLen + 8*23 // the 24th Config field
	initOff   = actOff + 4 + len("selu")
	nparamOff = initOff + 16
)

// cfgField returns an edit setting Config field k (< 23) to v.
func cfgField(k int, v int64) func([]byte) []byte {
	return func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[headerLen+8*k:], uint64(v))
		return b
	}
}

// paramSpans returns the byte range of each parameter record of body.
func paramSpans(body []byte) [][2]int {
	n := int(binary.LittleEndian.Uint32(body[nparamOff:]))
	off := nparamOff + 4
	spans := make([][2]int, n)
	for i := range spans {
		nameLen := int(binary.LittleEndian.Uint32(body[off:]))
		rows := int(binary.LittleEndian.Uint32(body[off+4+nameLen:]))
		cols := int(binary.LittleEndian.Uint32(body[off+8+nameLen:]))
		end := off + 12 + nameLen + 8*rows*cols
		spans[i] = [2]int{off, end}
		off = end
	}
	return spans
}

// TestLoadRejects holds the decoder to each of its rules: every input
// here errors, naming what is wrong, and none panics. Before format v1
// a fitted normalizer of one bound loaded and made the first Predict
// panic; that is the first case.
func TestLoadRejects(t *testing.T) {
	good := smallModel(t).encode()
	if _, err := decodeModel(good); err != nil {
		t.Fatal(err)
	}
	mutated := func(mutate func(m *Model)) []byte {
		m := smallModel(t)
		mutate(m)
		return m.encode()
	}
	scale := func(s float64) []byte { return mutated(func(m *Model) { m.target.Scale = s }) }
	var gobEra bytes.Buffer
	if err := gob.NewEncoder(&gobEra).Encode(struct{ Cfg Config }{DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"fitted normalizer of one bound", mutated(func(m *Model) {
			m.norm = &MinMaxNormalizer{Min: []float64{0}, Max: []float64{1}, fitted: true}
		}), "has 1/1 bounds, want 3"},
		{"unfitted normalizer with bounds", mutated(func(m *Model) { m.norm.fitted = false }), "has 3/3 bounds, want 0"},
		{"normalizer of four bounds", mutated(func(m *Model) {
			m.norm.Min = append(m.norm.Min, 0)
		}), "at most 3"},
		{"non-finite normalizer bound", mutated(func(m *Model) { m.norm.Max[1] = math.Inf(1) }), "not finite"},
		{"zero target scale", scale(0), "target scale"},
		{"negative target scale", scale(-2), "target scale"},
		{"NaN target scale", scale(math.NaN()), "target scale"},
		{"infinite target scale", scale(math.Inf(1)), "target scale"},
		{"missing parameter", mutated(func(m *Model) { m.params.z = m.params.z[:len(m.params.z)-1] }),
			"its config builds"},
		{"repeated parameter", mutated(func(m *Model) { m.params.z[len(m.params.z)-1] = m.params.z[0] }),
			"every parameter once"},
		{"parameters out of order", edited(good, func(b []byte) []byte {
			s := paramSpans(b)
			a, c := s[0], s[1]
			swapped := append(append([]byte(nil), b[c[0]:c[1]]...), b[a[0]:a[1]]...)
			copy(b[a[0]:c[1]], swapped)
			return b
		}), "every parameter once"},
		{"parameter of another shape", mutated(func(m *Model) {
			p := m.params.f[0]
			p.Value = mat.NewDense(p.Value.Rows+1, p.Value.Cols)
		}), "its config builds"},
		{"trailing byte", edited(good, func(b []byte) []byte { return append(b, 0) }), "trailing"},
		{"PropertySize 1<<30", edited(good, cfgField(0, 1<<30)), "PropertySize"},
		{"negative hidden width", edited(good, cfgField(2, -3)), "EncoderHidden"},
		{"weights past the input", edited(good, func(b []byte) []byte {
			return cfgField(2, 60000)(cfgField(0, 60000)(b))
		}), "bytes of weights"},
		{"invalid config", edited(good, cfgField(1, 6)), "EncodingDim"},
		{"unknown activation", edited(good, func(b []byte) []byte { b[actOff+4+3] = 'x'; return b }), `"selx"`},
		{"activation name past the end", edited(good, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[actOff:], 1<<31)
			return b
		}), "truncated"},
		{"unknown init scheme", edited(good, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[initOff:], 7)
			return b
		}), "init scheme 7"},
		{"pretrained flag 2", edited(good, func(b []byte) []byte { b[len(b)-9] = 2; return b }), "flag is 2"},
		{"negative fine-tune count", edited(good, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(b)-8:], ^uint64(0))
			return b
		}), "fine-tune sample count"},
		{"bit flip", func() []byte { b := bytes.Clone(good); b[100] ^= 4; return b }(), "checksum mismatch"},
		{"format version 2", func() []byte { b := bytes.Clone(good); b[len(modelMagic)] = 2; return b }(), "version 2"},
		{"gob-era model", gobEra.Bytes(), "re-run bellamy train"},
		{"empty", nil, "re-run bellamy train"},
		{"magic only", []byte(modelMagic), "shorter than"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeModel(tc.b)
			if err == nil {
				t.Fatal("decoded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

// TestLoadRejectsHugeConfigWithoutAllocating: a header claiming a
// PropertySize of 1<<30 fails before New sizes anything by it.
func TestLoadRejectsHugeConfigWithoutAllocating(t *testing.T) {
	huge := edited(smallModel(t).encode(), cfgField(0, 1<<30))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeModel(huge)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
		t.Fatalf("rejecting the header allocated %d bytes", d)
	}
}

// TestLoadRejectsEveryTruncation: a prefix of a model is an error, with
// its checksum intact or redone (then the cursor finds the end).
func TestLoadRejectsEveryTruncation(t *testing.T) {
	b := smallModel(t).encode()
	for n := 0; n < len(b); n++ {
		if _, err := decodeModel(b[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of %d decoded", n, len(b))
		}
		if n >= 4 {
			if _, err := decodeModel(withChecksum(bytes.Clone(b[:n-4]))); err == nil {
				t.Fatalf("a %d-byte prefix with its checksum redone decoded", n)
			}
		}
	}
}

// FuzzLoadModel: decoding arbitrary bytes errors or yields a model that
// encodes back to the same bytes and answers a query that fits its
// config, in float64 and quantized, without panicking. Each input is
// also decoded with its checksum redone, so mutations reach the fields
// behind it. The seeds are a real model, every truncation of it, a bit
// flip in every byte with the checksum redone, and the huge header.
func FuzzLoadModel(f *testing.F) {
	good := smallModel(f).encode()
	for n := 0; n <= len(good); n++ {
		f.Add(good[:n])
	}
	for i := range len(good) - 4 {
		f.Add(edited(good, func(b []byte) []byte { b[i] ^= 1 << (i % 8); return b }))
	}
	f.Add(edited(good, cfgField(0, 1<<30)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, data)
		if len(data) >= 4 {
			checkDecoded(t, edited(data, func(b []byte) []byte { return b }))
		}
	})
}

// checkDecoded is FuzzLoadModel's property on one input.
func checkDecoded(t *testing.T, data []byte) {
	m, err := decodeModel(data)
	if err != nil {
		return
	}
	if strconv.IntSize == 64 && !bytes.Equal(m.encode(), data) {
		t.Fatal("an accepted model encodes to other bytes")
	}
	q := Query{ScaleOut: 3}
	for k := 0; k < m.Cfg.NumEssential; k++ {
		q.Essential = append(q.Essential, encoding.Property{Value: strconv.Itoa(k * 1000)})
	}
	for k := 0; k < min(m.Cfg.NumOptional, 2); k++ {
		q.Optional = append(q.Optional, encoding.Property{Value: "opt" + strconv.Itoa(k), Optional: true})
	}
	if _, err := m.Predict(q.ScaleOut, q.Essential, q.Optional); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	im, err := m.Quantize()
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	if _, err := im.Predict(q.ScaleOut, q.Essential, q.Optional); err != nil {
		t.Fatalf("quantized Predict: %v", err)
	}
}
