package encoding

import (
	"hash/fnv"
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

// The tests named after the hasher and the binarizer check the two
// halves of Eq. 4 (text hashed, numbers binarized) through EncodeTo.

// encode returns EncodeTo's vector of value.
func encode(e *PropertyEncoder, value string) []float64 {
	dst := make([]float64, e.n)
	e.EncodeTo(dst, value)
	return dst
}

// sameBits reports whether a and b are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sqNorm is the squared norm of the payload, λ excluded.
func sqNorm(v []float64) float64 {
	var sq float64
	for _, x := range v[1:] {
		sq += x * x
	}
	return sq
}

// bitsValue reads a binarized payload back as a number.
func bitsValue(bits []float64) uint64 {
	var v uint64
	for i, x := range bits {
		if i < 64 && x > 0.5 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// TestVocabularyClean: text encodes as its lower-cased vocabulary
// characters do.
func TestVocabularyClean(t *testing.T) {
	e := NewPropertyEncoder(40)
	tests := []struct{ in, want string }{
		{"m4.2xlarge", "m4.2xlarge"},
		{"M4.2XLARGE", "m4.2xlarge"},
		{"hello, world!", "hello world"},
		{"--k=100", "--k=100"},
		{"über", "ber"},
		{"\u212Aube", "kube"}, // the Kelvin sign lower-cases to k
		{"\u0130d", "id"},     // so does İ to i
		{"", "!!!"},
	}
	for _, tc := range tests {
		if got, want := encode(e, tc.in), encode(e, tc.want); !sameBits(got, want) {
			t.Errorf("EncodeTo(%q) = %v, EncodeTo(%q) = %v", tc.in, got, tc.want, want)
		}
	}
}

// TestNGrams: "abc" hashes exactly its six 1-, 2- and 3-grams.
func TestNGrams(t *testing.T) {
	want := make([]float64, 40)
	for _, term := range []string{"a", "b", "c", "ab", "bc", "abc"} {
		h := fnv.New64a()
		h.Write([]byte(term))
		sum := h.Sum64()
		if sum>>63 == 1 {
			want[1+sum%39]--
		} else {
			want[1+sum%39]++
		}
	}
	inv := 1 / math.Sqrt(sqNorm(want))
	for i := range want {
		want[i] *= inv
	}
	if got := encode(NewPropertyEncoder(40), "abc"); !sameBits(got, want) {
		t.Fatalf("EncodeTo(\"abc\") = %v, want the n-gram hashes %v", got, want)
	}
}

// TestNGramsShortString: one character is one 1-gram, a ±1 at one
// index; no vocabulary character is no n-gram at all.
func TestNGramsShortString(t *testing.T) {
	e := NewPropertyEncoder(40)
	nonzero := 0
	for _, x := range encode(e, "a")[1:] {
		if x != 0 {
			nonzero++
			if math.Abs(x) != 1 {
				t.Fatalf("the one n-gram of \"a\" has weight %v, want ±1", x)
			}
		}
	}
	if nonzero != 1 {
		t.Fatalf("\"a\" sets %d payload slots, want 1", nonzero)
	}
	if sq := sqNorm(encode(e, "")); sq != 0 {
		t.Fatalf("empty text has payload norm² %v, want 0", sq)
	}
}

func TestHasherUnitNorm(t *testing.T) {
	e := NewPropertyEncoder(40)
	for _, s := range []string{"m4.2xlarge", "pagerank", "--iterations 100", "x"} {
		v := encode(e, s)
		if v[0] != 0 {
			t.Fatalf("EncodeTo(%q) λ = %v, want 0", s, v[0])
		}
		if sq := sqNorm(v); math.Abs(sq-1) > 1e-9 {
			t.Errorf("EncodeTo(%q) payload norm² = %v, want 1", s, sq)
		}
	}
}

func TestHasherEmptyIsZero(t *testing.T) {
	for _, s := range []string{"!!!", "", "\xff\xfe"} { // no vocabulary character
		for i, x := range encode(NewPropertyEncoder(17), s) {
			if x != 0 {
				t.Fatalf("EncodeTo(%q)[%d] = %v, want the zero vector", s, i, x)
			}
		}
	}
}

func TestHasherDeterministic(t *testing.T) {
	a := encode(NewPropertyEncoder(40), "r4.2xlarge")
	e := NewPropertyEncoder(40)
	b, c := encode(e, "r4.2xlarge"), encode(e, "r4.2xlarge") // a miss, then a memo hit
	if !sameBits(a, b) || !sameBits(b, c) {
		t.Fatal("text encoding not deterministic")
	}
}

func TestHasherCaseInsensitive(t *testing.T) {
	e := NewPropertyEncoder(40)
	if !sameBits(encode(e, "PageRank"), encode(e, "pagerank")) {
		t.Fatal("text encoding not case-insensitive")
	}
}

func TestHasherDistinguishesInputs(t *testing.T) {
	e := NewPropertyEncoder(40)
	if sameBits(encode(e, "m4.2xlarge"), encode(e, "r4.2xlarge")) {
		t.Fatal("different node types encode identically")
	}
}

func TestBinarizerRoundTrip(t *testing.T) {
	e := NewPropertyEncoder(40)
	for _, v := range []uint64{0, 1, 2, 7, 255, 19353, 1 << 30, 1<<39 - 1} {
		bits := encode(e, strconv.FormatUint(v, 10))
		if bits[0] != 1 {
			t.Fatalf("EncodeTo(%d) λ = %v, want 1", v, bits[0])
		}
		if got := bitsValue(bits[1:]); got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
}

// TestBinarizerOverflow: a number that does not fit L = N-1 bits is
// hashed.
func TestBinarizerOverflow(t *testing.T) {
	e := NewPropertyEncoder(9) // 8 payload bits
	if v := encode(e, "256"); v[0] != 0 {
		t.Fatal("256 in 8 bits should be hashed")
	}
	if v := encode(e, "255"); v[0] != 1 {
		t.Fatal("255 should fit in 8 bits")
	}
}

func TestBinarizerBitsAreBinary(t *testing.T) {
	e := NewPropertyEncoder(17) // 16 payload bits
	if v := encode(e, "70000"); v[0] != 0 {
		t.Fatal("70000 in 16 bits should be hashed")
	}
	for i, x := range encode(e, "12345") {
		if x != 0 && x != 1 {
			t.Fatalf("slot %d = %v, want 0 or 1", i, x)
		}
	}
}

// Property: the binarizer round-trips every value that fits.
func TestQuickBinarizerRoundTrip(t *testing.T) {
	e := NewPropertyEncoder(40)
	f := func(v uint64) bool {
		v %= 1 << 39
		bits := encode(e, strconv.FormatUint(v, 10))
		return bits[0] == 1 && bitsValue(bits[1:]) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hashed payloads always have norm 0 or 1.
func TestQuickHasherNorm(t *testing.T) {
	e := NewPropertyEncoder(40)
	f := func(s string) bool {
		v := encode(e, s)
		if v[0] == 1 {
			return true // a number
		}
		sq := sqNorm(v)
		return sq == 0 || math.Abs(sq-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncoderNumeric(t *testing.T) {
	v := encode(NewPropertyEncoder(40), "19353")
	if len(v) != 40 {
		t.Fatalf("len = %d, want 40", len(v))
	}
	if v[0] != 1 {
		t.Fatalf("λ = %v, want 1 for binarizer", v[0])
	}
	if got := bitsValue(v[1:]); got != 19353 {
		t.Fatalf("payload decodes to %d, want 19353", got)
	}
}

func TestPropertyEncoderTextual(t *testing.T) {
	v := encode(NewPropertyEncoder(40), "m4.2xlarge")
	if v[0] != 0 {
		t.Fatalf("λ = %v, want 0 for hasher", v[0])
	}
	if sq := sqNorm(v); math.Abs(sq-1) > 1e-9 {
		t.Fatalf("payload norm² = %v, want 1", sq)
	}
}

func TestPropertyEncoderNegativeNumberIsHashed(t *testing.T) {
	for _, s := range []string{"-25", "+25", " 25"} {
		if v := encode(NewPropertyEncoder(40), s); v[0] != 0 {
			t.Fatalf("%q λ = %v, want 0 (hashed)", s, v[0])
		}
	}
}

func TestPropertyEncoderHugeNumberFallsBack(t *testing.T) {
	for _, tc := range []struct {
		n     int
		value string
	}{
		{10, "100000"},               // only 9 payload bits
		{40, "549755813888"},         // 2^39
		{80, "18446744073709551616"}, // past uint64
	} {
		v := encode(NewPropertyEncoder(tc.n), tc.value)
		if v[0] != 0 {
			t.Fatalf("N=%d %s λ = %v, want 0 (hashed fallback)", tc.n, tc.value, v[0])
		}
		if sq := sqNorm(v); math.Abs(sq-1) > 1e-9 {
			t.Fatalf("N=%d %s payload norm² = %v, want 1", tc.n, tc.value, sq)
		}
	}
}

// TestEncodeAll: a context's properties encoded one after another into
// the rows of one buffer each get the vector a fresh encoder gives.
func TestEncodeAll(t *testing.T) {
	props := []Property{
		{Name: "node_type", Value: "m4.2xlarge"},
		{Name: "dataset_mb", Value: "19353"},
		{Name: "job_name", Value: "sgd", Optional: true},
		{Name: "node_type_again", Value: "m4.2xlarge"},
	}
	e := NewPropertyEncoder(40)
	rows := make([]float64, 40*len(props))
	for i, p := range props {
		e.EncodeTo(rows[40*i:40*(i+1)], p.Value)
	}
	for i, p := range props {
		if want := encode(NewPropertyEncoder(40), p.Value); !sameBits(rows[40*i:40*(i+1)], want) {
			t.Fatalf("row %d (%s) differs from a fresh encoding", i, p.Name)
		}
	}
	if rows[40] != 1 {
		t.Fatal("numeric property should use binarizer")
	}
}

// Property: numeric strings below 2^39 always choose the binarizer.
func TestQuickPropertyEncoderLambda(t *testing.T) {
	e := NewPropertyEncoder(40)
	f := func(v uint64) bool {
		v %= 1 << 39
		return encode(e, strconv.FormatUint(v, 10))[0] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeToMemoizesOnlyText: numbers that fit the binarizer never
// enter the memo however many distinct ones arrive; hashed values
// (text, and numbers too large to binarize) enter it once.
func TestEncodeToMemoizesOnlyText(t *testing.T) {
	e := NewPropertyEncoder(40)
	dst := make([]float64, 40)
	for _, v := range []string{"m4.2xlarge", "549755813888", "m4.2xlarge"} {
		if e.EncodeTo(dst, v); dst[0] != 0 {
			t.Fatalf("EncodeTo(%q) λ = %v, want 0 (hashed)", v, dst[0])
		}
	}
	if len(e.memo) != 2 {
		t.Fatalf("memo holds %d values after two distinct hashed ones, want 2", len(e.memo))
	}
	for i := 0; i < 10000; i++ {
		if e.EncodeTo(dst, strconv.Itoa(2000+7*i)); dst[0] != 1 {
			t.Fatalf("EncodeTo(%d) λ = %v, want 1 (binarized)", 2000+7*i, dst[0])
		}
	}
	if len(e.memo) != 2 {
		t.Fatalf("memo grew to %d values over 10000 distinct numbers, want 2", len(e.memo))
	}
}

// TestEncodeToHitZeroAlloc: a number, and text the memo holds, encode
// without allocating.
func TestEncodeToHitZeroAlloc(t *testing.T) {
	e := NewPropertyEncoder(40)
	dst := make([]float64, 40)
	e.EncodeTo(dst, "m4.2xlarge")
	if n := testing.AllocsPerRun(100, func() {
		e.EncodeTo(dst, "123456")
		e.EncodeTo(dst, "m4.2xlarge")
	}); n != 0 {
		t.Fatalf("a number and a memo hit allocate %v times per pair, want 0", n)
	}
}

// TestEncodeToMissPastCapZeroAlloc: once the memo is full, text it does
// not hold is hashed on every call without allocating, and the memo
// stays at its cap.
func TestEncodeToMissPastCapZeroAlloc(t *testing.T) {
	e := fullEncoder()
	dst := make([]float64, 40)
	want := encode(NewPropertyEncoder(40), jobParams)
	if n := testing.AllocsPerRun(100, func() { e.EncodeTo(dst, jobParams) }); n != 0 {
		t.Fatalf("a miss past the memo cap allocates %v times, want 0", n)
	}
	if !sameBits(dst, want) {
		t.Fatal("a miss past the memo cap encodes other bits than a fresh encoder")
	}
	if len(e.memo) != memoCap {
		t.Fatalf("memo holds %d values, want its cap %d", len(e.memo), memoCap)
	}
}

// jobParams is a 42-character job-parameter string.
const jobParams = "--iterations 100 --partitions 128 pagerank"

// fullEncoder returns an encoder whose memo is at its cap, none of it
// jobParams or a node type.
func fullEncoder() *PropertyEncoder {
	e := NewPropertyEncoder(40)
	dst := make([]float64, 40)
	for i := 0; len(e.memo) < memoCap; i++ {
		e.EncodeTo(dst, "ctx-"+strconv.Itoa(i))
	}
	return e
}

// BenchmarkEncodeToHit: text the memo holds costs a lookup and a copy.
func BenchmarkEncodeToHit(b *testing.B) {
	e := NewPropertyEncoder(40)
	dst := make([]float64, 40)
	e.EncodeTo(dst, "m4.2xlarge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.EncodeTo(dst, "m4.2xlarge")
	}
}

// BenchmarkEncodeToMiss: text hashed on every call, past the memo cap,
// for a node type and a 42-character job-parameter string.
func BenchmarkEncodeToMiss(b *testing.B) {
	e := fullEncoder()
	dst := make([]float64, 40)
	for _, v := range []struct{ name, value string }{{"node_type", "m4.2xlarge"}, {"job_params", jobParams}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.EncodeTo(dst, v.value)
			}
		})
	}
}
