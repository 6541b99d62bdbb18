// Package encoding implements Bellamy's descriptive-property encoding
// (paper §III-C): natural numbers are binarized, textual properties are
// hashed from character n-grams onto the euclidean unit sphere, and every
// property is prefixed with a flag bit identifying the method used.
package encoding

import (
	"fmt"
	"math"
	"slices"
	"unicode"
	"unicode/utf8"
)

// vocabulary is the case-insensitive character set text is cleaned to
// before n-gram extraction: alphanumeric characters plus a handful of
// special symbols, mirroring the paper's setup.
const vocabulary = "abcdefghijklmnopqrstuvwxyz0123456789.-_ =/"

// keep maps an ASCII character to the vocabulary character it is kept
// as (its lower case), or to 0 when cleaning drops it.
var keep = func() (t [utf8.RuneSelf]byte) {
	for i := 0; i < len(vocabulary); i++ {
		c := vocabulary[i]
		t[c] = c
		if 'a' <= c && c <= 'z' {
			t[c-'a'+'A'] = c
		}
	}
	return t
}()

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// PropertyEncoder turns a single descriptive property into a fixed-size
// vector p ∈ R^N (paper Eq. 3-4): a λ flag followed by L = N-1 payload
// dimensions.
//
//   - A natural number below 2^L is binarized: λ = 1, and the payload is
//     its L little-endian bits.
//   - Anything else is text and hashed: λ = 0. The text is lower-cased
//     and stripped to the vocabulary. Each of its character 1-, 2- and
//     3-grams then adds ±1 at its FNV-1a hash modulo L, the sign taken
//     from the hash's top bit like scikit-learn's alternate_sign, and the
//     payload is projected onto the unit sphere. Text with no vocabulary
//     character has a zero payload.
//
// Hashed text is memoized, because training and serving hit the same few
// property strings over and over, so a repeated value costs a copy. The
// memo is bounded; past the cap text is re-hashed on every call. Apart
// from a new memo entry, and the text buffer growing to a value longer
// than any before it, encoding allocates nothing. The encoder is not
// safe for concurrent use, matching the models that own it.
type PropertyEncoder struct {
	n    int
	memo map[string][]float64 // the vector of every text value seen so far
	text []byte               // the cleaned text of the value being hashed
}

// memoCap bounds the per-encoder memo. The cardinality of textual
// properties in Bellamy workloads is tiny (node types, job parameters,
// dataset characteristics); numbers such as dataset sizes are unbounded
// and never enter the memo. The cap only guards against unbounded
// adversarial serve traffic.
const memoCap = 8192

// NewPropertyEncoder builds an encoder producing vectors of size n; the
// paper uses 40.
func NewPropertyEncoder(n int) *PropertyEncoder {
	if n < 2 {
		panic(fmt.Sprintf("encoding: property size %d too small (need >= 2)", n))
	}
	return &PropertyEncoder{n: n, memo: make(map[string][]float64), text: make([]byte, 0, 64)}
}

// EncodeTo writes the vector of value over dst, whose length must be N.
// It is the batch-construction kernel of the allocation-free engine.
func (e *PropertyEncoder) EncodeTo(dst []float64, value string) {
	if len(dst) != e.n {
		panic(fmt.Sprintf("encoding: EncodeTo dst len %d != N %d", len(dst), e.n))
	}
	if v, ok := e.natural(value); ok {
		dst[0] = 1
		for i := 1; i < len(dst); i++ {
			dst[i] = float64(v & 1)
			v >>= 1
		}
		return
	}
	if vec, ok := e.memo[value]; ok {
		copy(dst, vec)
		return
	}
	e.hash(dst, value)
	if len(e.memo) < memoCap {
		e.memo[value] = slices.Clone(dst)
	}
}

// hash writes the hashed-text vector of value over dst.
func (e *PropertyEncoder) hash(dst []float64, value string) {
	text := e.text[:0]
	for _, r := range value {
		if r >= utf8.RuneSelf {
			r = unicode.ToLower(r) // the mapping strings.ToLower applies
		}
		if r < utf8.RuneSelf && keep[r] != 0 {
			text = append(text, keep[r])
		}
	}
	e.text = text
	clear(dst) // λ = 0
	out := dst[1:]
	l := uint64(len(out))
	for n := 1; n <= 3; n++ {
		for i := 0; i+n <= len(text); i++ {
			h := uint64(fnvOffset)
			for _, c := range text[i : i+n] {
				h = (h ^ uint64(c)) * fnvPrime
			}
			if h>>63 == 1 {
				out[h%l]--
			} else {
				out[h%l]++
			}
		}
	}
	var sq float64
	for _, x := range out {
		sq += x * x
	}
	if sq == 0 {
		return
	}
	inv := 1 / math.Sqrt(sq)
	for i := range out {
		out[i] *= inv
	}
}

// natural parses value the way strconv.ParseUint(value, 10, 64) does,
// without allocating an error for text, and reports whether the number
// fits the L = N-1 payload bits.
func (e *PropertyEncoder) natural(value string) (uint64, bool) {
	if value == "" {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(value); i++ {
		d := uint64(value[i] - '0')
		// 19 digits cannot overflow; only longer strings pay the check.
		if d > 9 || (i >= 19 && v > (math.MaxUint64-d)/10) {
			return 0, false
		}
		v = v*10 + d
	}
	if l := e.n - 1; l < 64 && v >= 1<<uint(l) {
		return 0, false
	}
	return v, true
}

// Property is one named descriptive property of a job execution context.
type Property struct {
	Name  string
	Value string
	// Optional marks properties averaged into the shared slot rather
	// than given dedicated capacity (paper Eq. 5-6).
	Optional bool
}
