package encoding

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestVocabularyClean(t *testing.T) {
	v := DefaultVocab()
	tests := []struct{ in, want string }{
		{"m4.2xlarge", "m4.2xlarge"},
		{"M4.2XLARGE", "m4.2xlarge"},
		{"hello, world!", "hello world"},
		{"--k=100", "--k=100"},
		{"über", "ber"},
		{"", ""},
	}
	for _, tc := range tests {
		if got := v.Clean(tc.in); got != tc.want {
			t.Errorf("Clean(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNGrams(t *testing.T) {
	got := NGrams("abc", 1, 2, 3)
	want := []string{"a", "b", "c", "ab", "bc", "abc"}
	if len(got) != len(want) {
		t.Fatalf("NGrams = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NGrams[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNGramsShortString(t *testing.T) {
	if got := NGrams("a", 2, 3); len(got) != 0 {
		t.Fatalf("NGrams of short string = %v, want empty", got)
	}
	if got := NGrams("", 1); len(got) != 0 {
		t.Fatalf("NGrams of empty string = %v, want empty", got)
	}
}

func TestHasherUnitNorm(t *testing.T) {
	h := NewHasher(39)
	for _, s := range []string{"m4.2xlarge", "pagerank", "--iterations 100", "x"} {
		v := h.Encode(s)
		if len(v) != 39 {
			t.Fatalf("Encode(%q) len = %d, want 39", s, len(v))
		}
		var sq float64
		for _, x := range v {
			sq += x * x
		}
		if math.Abs(sq-1) > 1e-9 {
			t.Errorf("Encode(%q) squared norm = %v, want 1", s, sq)
		}
	}
}

func TestHasherEmptyIsZero(t *testing.T) {
	h := NewHasher(16)
	v := h.Encode("!!!") // no in-vocabulary characters
	for i, x := range v {
		if x != 0 {
			t.Fatalf("Encode of out-of-vocab string has nonzero at %d: %v", i, x)
		}
	}
}

func TestHasherDeterministic(t *testing.T) {
	h := NewHasher(39)
	a := h.Encode("r4.2xlarge")
	b := h.Encode("r4.2xlarge")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("hasher not deterministic")
		}
	}
}

func TestHasherCaseInsensitive(t *testing.T) {
	h := NewHasher(39)
	a := h.Encode("PageRank")
	b := h.Encode("pagerank")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("hasher not case-insensitive")
		}
	}
}

func TestHasherDistinguishesInputs(t *testing.T) {
	h := NewHasher(39)
	a := h.Encode("m4.2xlarge")
	b := h.Encode("r4.2xlarge")
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different node types encode identically")
	}
}

func TestBinarizerRoundTrip(t *testing.T) {
	b := NewBinarizer(39)
	for _, v := range []uint64{0, 1, 2, 7, 255, 19353, 1 << 30} {
		bits, err := b.Encode(v)
		if err != nil {
			t.Fatalf("Encode(%d): %v", v, err)
		}
		if got := b.Decode(bits); got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
}

func TestBinarizerOverflow(t *testing.T) {
	b := NewBinarizer(8)
	if _, err := b.Encode(256); err == nil {
		t.Fatal("expected overflow error for 256 in 8 bits")
	}
	if _, err := b.Encode(255); err != nil {
		t.Fatalf("255 should fit in 8 bits: %v", err)
	}
}

func TestBinarizerBitsAreBinary(t *testing.T) {
	b := NewBinarizer(16)
	bits, err := b.Encode(70000)
	if err == nil {
		t.Fatal("expected overflow for 70000 in 16 bits")
	}
	bits, err = b.Encode(12345)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range bits {
		if x != 0 && x != 1 {
			t.Fatalf("bit %d = %v, want 0 or 1", i, x)
		}
	}
}

// Property: binarizer round-trips every value that fits.
func TestQuickBinarizerRoundTrip(t *testing.T) {
	b := NewBinarizer(39)
	f := func(v uint64) bool {
		v %= 1 << 39
		bits, err := b.Encode(v)
		if err != nil {
			return false
		}
		return b.Decode(bits) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hashed encodings always have norm 0 or 1.
func TestQuickHasherNorm(t *testing.T) {
	h := NewHasher(39)
	f := func(s string) bool {
		v := h.Encode(s)
		var sq float64
		for _, x := range v {
			sq += x * x
		}
		return sq == 0 || math.Abs(sq-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncoderNumeric(t *testing.T) {
	e := NewPropertyEncoder(40)
	v, kind := e.Encode("19353")
	if kind != KindBinary {
		t.Fatalf("kind = %v, want binary", kind)
	}
	if len(v) != 40 {
		t.Fatalf("len = %d, want 40", len(v))
	}
	if v[0] != 1 {
		t.Fatalf("λ = %v, want 1 for binarizer", v[0])
	}
	b := NewBinarizer(39)
	if got := b.Decode(v[1:]); got != 19353 {
		t.Fatalf("payload decodes to %d, want 19353", got)
	}
}

func TestPropertyEncoderTextual(t *testing.T) {
	e := NewPropertyEncoder(40)
	v, kind := e.Encode("m4.2xlarge")
	if kind != KindHashed {
		t.Fatalf("kind = %v, want hashed", kind)
	}
	if v[0] != 0 {
		t.Fatalf("λ = %v, want 0 for hasher", v[0])
	}
	var sq float64
	for _, x := range v[1:] {
		sq += x * x
	}
	if math.Abs(sq-1) > 1e-9 {
		t.Fatalf("payload norm² = %v, want 1", sq)
	}
}

func TestPropertyEncoderNegativeNumberIsHashed(t *testing.T) {
	e := NewPropertyEncoder(40)
	_, kind := e.Encode("-25")
	if kind != KindHashed {
		t.Fatalf("negative number kind = %v, want hashed", kind)
	}
}

func TestPropertyEncoderHugeNumberFallsBack(t *testing.T) {
	e := NewPropertyEncoder(10) // only 9 payload bits
	_, kind := e.Encode("100000")
	if kind != KindHashed {
		t.Fatalf("overflow number kind = %v, want hashed fallback", kind)
	}
}

func TestEncodeAll(t *testing.T) {
	e := NewPropertyEncoder(40)
	props := []Property{
		{Name: "node_type", Value: "m4.2xlarge"},
		{Name: "dataset_mb", Value: "19353"},
		{Name: "job_name", Value: "sgd", Optional: true},
	}
	vs := e.EncodeAll(props)
	if len(vs) != 3 {
		t.Fatalf("EncodeAll len = %d, want 3", len(vs))
	}
	for i, v := range vs {
		if len(v) != 40 {
			t.Fatalf("vector %d len = %d, want 40", i, len(v))
		}
	}
	if vs[1][0] != 1 {
		t.Fatal("numeric property should use binarizer")
	}
}

// Property: numeric strings below 2^39 always choose the binarizer and
// the λ prefix matches the kind.
func TestQuickPropertyEncoderLambda(t *testing.T) {
	e := NewPropertyEncoder(40)
	f := func(v uint64) bool {
		v %= 1 << 39
		vec, kind := e.Encode(strconv.FormatUint(v, 10))
		if kind != KindBinary {
			return false
		}
		return vec[0] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeToMatchesEncode: the in-place kernel and the allocating
// reference agree bit for bit, on first sight of a value and again once
// it is memoized, across the binarizer's 39-bit boundary, numbers too
// large to binarize (hashed) and text.
func TestEncodeToMatchesEncode(t *testing.T) {
	values := []string{
		"0", "1", "7", "19353", "007", "0000000000000000000000005",
		"549755813887",         // 2^39-1: last value that fits
		"549755813888",         // 2^39: hashed
		"18446744073709551615", // MaxUint64
		"18446744073709551616", // overflows uint64
		"99999999999999999999999",
		"", "-5", "+5", "1_000", "12a", "1.5", " 12", "١٢",
		"m4.2xlarge", "--iterations 100", "uniform", "!!!",
	}
	for _, n := range []int{2, 10, 40, 65, 80} {
		e := NewPropertyEncoder(n)
		dst := make([]float64, n)
		for pass := 0; pass < 2; pass++ {
			for _, v := range values {
				for i := range dst {
					dst[i] = -7 // every slot must be overwritten
				}
				want, wantKind := e.Encode(v)
				if kind := e.EncodeTo(dst, v); kind != wantKind {
					t.Fatalf("N=%d EncodeTo(%q) kind = %v, Encode says %v", n, v, kind, wantKind)
				}
				for i := range want {
					if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
						t.Fatalf("N=%d EncodeTo(%q)[%d] = %v, Encode gives %v", n, v, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// TestEncodeToMemoizesOnlyText: numbers that fit the binarizer never
// enter the memo however many distinct ones arrive; hashed values
// (text, and numbers too large to binarize) enter it once.
func TestEncodeToMemoizesOnlyText(t *testing.T) {
	e := NewPropertyEncoder(40)
	dst := make([]float64, 40)
	for _, v := range []string{"m4.2xlarge", "549755813888", "m4.2xlarge"} {
		if kind := e.EncodeTo(dst, v); kind != KindHashed {
			t.Fatalf("EncodeTo(%q) kind = %v, want hashed", v, kind)
		}
	}
	if len(e.memo) != 2 {
		t.Fatalf("memo holds %d values after two distinct hashed ones, want 2", len(e.memo))
	}
	for i := 0; i < 10000; i++ {
		if kind := e.EncodeTo(dst, strconv.Itoa(2000+7*i)); kind != KindBinary {
			t.Fatalf("EncodeTo(%d) kind = %v, want binary", 2000+7*i, kind)
		}
	}
	if len(e.memo) != 2 {
		t.Fatalf("memo grew to %d values over 10000 distinct numbers, want 2", len(e.memo))
	}
	if n := testing.AllocsPerRun(100, func() {
		e.EncodeTo(dst, "123456")
		e.EncodeTo(dst, "m4.2xlarge")
	}); n != 0 {
		t.Fatalf("warm EncodeTo allocates %v times per call pair, want 0", n)
	}
}

func BenchmarkHasherEncode(b *testing.B) {
	h := NewHasher(39)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Encode("--iterations 100 --partitions 128 pagerank")
	}
}

func BenchmarkPropertyEncode(b *testing.B) {
	e := NewPropertyEncoder(40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Encode("m4.2xlarge")
	}
}
