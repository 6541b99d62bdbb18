package encoding_test

import (
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/encoding"
)

// refEncode is the encoder EncodeTo replaced, kept as the reference it
// must match bit for bit: ParseUint decides between a binarizer and a
// hasher that lower-cases with strings.ToLower, keeps the vocabulary's
// runes through a map, cuts the 1-, 2- and 3-grams as strings of runes
// and hashes each with hash/fnv.
func refEncode(n int, value string) []float64 {
	out := make([]float64, n)
	if v, err := strconv.ParseUint(value, 10, 64); err == nil {
		if bits, ok := refBinarize(n-1, v); ok {
			out[0] = 1
			copy(out[1:], bits)
			return out
		}
	}
	copy(out[1:], refHash(n-1, value))
	return out
}

func refBinarize(dim int, v uint64) ([]float64, bool) {
	if dim < 64 && v >= 1<<uint(dim) {
		return nil, false
	}
	out := make([]float64, dim)
	for i := range out {
		out[i] = float64(v & 1)
		v >>= 1
	}
	return out, true
}

func refHash(dim int, s string) []float64 {
	allowed := map[rune]bool{}
	for _, r := range "abcdefghijklmnopqrstuvwxyz0123456789.-_ =/" {
		allowed[r] = true
	}
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if allowed[r] {
			b.WriteRune(r)
		}
	}
	runes := []rune(b.String())
	out := make([]float64, dim)
	for n := 1; n <= 3; n++ {
		for i := 0; i+n <= len(runes); i++ {
			h := fnv.New64a()
			h.Write([]byte(string(runes[i : i+n])))
			sum := h.Sum64()
			sign := 1.0
			if sum>>63 == 1 {
				sign = -1
			}
			out[int(sum%uint64(dim))] += sign
		}
	}
	var sq float64
	for _, x := range out {
		sq += x * x
	}
	if sq == 0 {
		return out
	}
	inv := 1 / math.Sqrt(sq)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// edgeValues are the inputs where the two paths could part: the
// binarizer's 39-bit boundary at the paper's N = 40, numbers too long
// for uint64, signs and spaces ParseUint refuses, non-ASCII runes that
// lower-case into the vocabulary (the Kelvin sign U+212A to k, İ U+0130
// to i) and invalid UTF-8.
var edgeValues = []string{
	"", "0", "1", "7", "19353", "007", "0000000000000000000000005",
	"549755813887",         // 2^39-1: last value that fits
	"549755813888",         // 2^39: hashed
	"18446744073709551615", // MaxUint64, 20 digits
	"18446744073709551616", // overflows uint64
	"99999999999999999999999",
	"-5", "+1", "+5", " 1", " 12", "1_000", "12a", "1.5", "١٢",
	"\u212A", "\u212Aubernetes", "\u0130NDEX", "\u0130i", "über", "\u00C5NGSTR\u00D6M\u212B",
	"\xff", "a\xffb", "\xe2\x84", "m4\x80.2xlarge",
	"m4.2xlarge", "M4.2XLARGE", "--iterations 100", "uniform", "!!!",
}

// assertBits fails unless got is want bit for bit, λ flag included; the
// vector is EncodeTo's of value at size N in the given pass.
func assertBits(t *testing.T, got, want []float64, pass int, value string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("N=%d pass %d EncodeTo(%q)[%d] = %v, reference gives %v", len(want), pass, value, i, got[i], want[i])
		}
	}
}

// TestEncodeToMatchesEncode: EncodeTo and the reference agree bit for
// bit at several sizes, on first sight of a value and again once it is
// memoized, and EncodeTo overwrites every slot of its destination.
func TestEncodeToMatchesEncode(t *testing.T) {
	for _, n := range []int{2, 10, 40, 65, 80} {
		e := encoding.NewPropertyEncoder(n)
		dst := make([]float64, n)
		for pass := 0; pass < 2; pass++ {
			for _, v := range edgeValues {
				for i := range dst {
					dst[i] = -7
				}
				e.EncodeTo(dst, v)
				assertBits(t, dst, refEncode(n, v), pass, v)
			}
		}
	}
}

// TestEncodeToMatchesReference: every essential and optional value of
// the simulated C3O and Bell corpora at seed 1, and the edge values,
// encode at the paper's N = 40 to what the reference gives, fresh and
// memoized.
func TestEncodeToMatchesReference(t *testing.T) {
	values := append([]string(nil), edgeValues...)
	for _, ds := range []*dataset.Dataset{
		dataset.GenerateC3O(dataset.SimConfig{Seed: 1}),
		dataset.GenerateBell(dataset.SimConfig{Seed: 1}),
	} {
		for _, job := range ds.Jobs() {
			for _, c := range ds.Contexts(job) {
				for _, p := range append(c.EssentialProps(), c.OptionalProps()...) {
					values = append(values, p.Value)
				}
			}
		}
	}
	e := encoding.NewPropertyEncoder(40)
	dst := make([]float64, 40)
	for pass := 0; pass < 2; pass++ {
		for _, v := range values {
			e.EncodeTo(dst, v)
			assertBits(t, dst, refEncode(40, v), pass, v)
		}
	}
}

// FuzzEncodeTo: any value, at any size, encodes to the reference's
// vector bit for bit, on a miss and on the memo hit after it. Property
// values arrive untrusted in every /v1 body.
func FuzzEncodeTo(f *testing.F) {
	for _, v := range edgeValues {
		f.Add(v, uint8(38))
	}
	f.Add("--k 8 --iterations 50", uint8(0))
	f.Add("12345678901234567890", uint8(62))
	f.Fuzz(func(t *testing.T, value string, size uint8) {
		n := 2 + int(size)%80
		e := encoding.NewPropertyEncoder(n)
		want := refEncode(n, value)
		dst := make([]float64, n)
		for pass := 0; pass < 2; pass++ {
			e.EncodeTo(dst, value)
			assertBits(t, dst, want, pass, value)
		}
	})
}
