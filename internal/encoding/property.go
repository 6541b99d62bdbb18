package encoding

import (
	"fmt"
	"math"
	"strconv"
)

// Kind reports which encoding method was used for a property, reflected
// in the λ prefix bit of the output vector (paper Eq. 3).
type Kind int

const (
	// KindHashed marks textual properties encoded by the hasher (λ=0).
	KindHashed Kind = iota
	// KindBinary marks natural numbers encoded by the binarizer (λ=1).
	KindBinary
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindBinary {
		return "binary"
	}
	return "hashed"
}

// PropertyEncoder turns a single descriptive property into a fixed-size
// vector p ∈ R^N: a λ prefix followed by L = N-1 payload dimensions from
// either the binarizer (natural numbers) or the hasher (text).
//
// EncodeTo binarizes natural numbers straight into the caller's vector
// and memoizes only hashed text (training and serving hit the same few
// property strings over and over), so the warm path allocates nothing.
// The memo is bounded; past the cap text is re-hashed on every call. The
// encoder is not safe for concurrent use, matching the models that own
// it.
type PropertyEncoder struct {
	// N is the total output size; the paper uses 40.
	N         int
	hasher    *Hasher
	binarizer *Binarizer

	// memo holds the hashed vector of every text value seen so far.
	memo map[string][]float64
}

// memoCap bounds the per-encoder memo. The cardinality of textual
// properties in Bellamy workloads is tiny (node types, job parameters,
// dataset characteristics); numbers such as dataset sizes are unbounded
// and never enter the memo. The cap only guards against unbounded
// adversarial serve traffic.
const memoCap = 8192

// NewPropertyEncoder builds an encoder producing vectors of size n.
func NewPropertyEncoder(n int) *PropertyEncoder {
	if n < 2 {
		panic(fmt.Sprintf("encoding: property size %d too small (need >= 2)", n))
	}
	return &PropertyEncoder{
		N:         n,
		hasher:    NewHasher(n - 1),
		binarizer: NewBinarizer(n - 1),
		memo:      make(map[string][]float64),
	}
}

// Encode vectorizes the property value. Values parsing as natural numbers
// that fit in L bits use the binarizer; everything else is hashed. The
// second return reports which method was chosen.
func (e *PropertyEncoder) Encode(value string) ([]float64, Kind) {
	if v, err := strconv.ParseUint(value, 10, 64); err == nil {
		if bits, berr := e.binarizer.Encode(v); berr == nil {
			out := make([]float64, e.N)
			out[0] = 1 // λ = 1: binarizer
			copy(out[1:], bits)
			return out, KindBinary
		}
		// Too large to binarize: fall through to hashing its digits.
	}
	out := make([]float64, e.N)
	out[0] = 0 // λ = 0: hasher
	copy(out[1:], e.hasher.Encode(value))
	return out, KindHashed
}

// EncodeTo writes the vectorization of value into dst (length N), bit
// for bit what Encode returns. A natural number that fits the binarizer
// is parsed and written in place without allocating; text is hashed
// once and memoized, so a repeated value costs a copy. It is the batch-construction kernel of the allocation-free
// engine.
func (e *PropertyEncoder) EncodeTo(dst []float64, value string) Kind {
	if len(dst) != e.N {
		panic(fmt.Sprintf("encoding: EncodeTo dst len %d != N %d", len(dst), e.N))
	}
	if v, ok := e.natural(value); ok {
		dst[0] = 1 // λ = 1: binarizer
		e.binarizer.EncodeTo(dst[1:], v)
		return KindBinary
	}
	if vec, ok := e.memo[value]; ok {
		copy(dst, vec)
		return KindHashed
	}
	vec, _ := e.Encode(value)
	if len(e.memo) < memoCap {
		e.memo[value] = vec
	}
	copy(dst, vec)
	return KindHashed
}

// natural parses value the way strconv.ParseUint(value, 10, 64) does,
// without allocating an error for text, and reports whether the number
// fits the binarizer's L = N-1 bits.
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
	if l := e.N - 1; l < 64 && v >= 1<<uint(l) {
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

// EncodeAll vectorizes a list of properties in order, returning one
// vector per property.
func (e *PropertyEncoder) EncodeAll(props []Property) [][]float64 {
	out := make([][]float64, len(props))
	for i, p := range props {
		v, _ := e.Encode(p.Value)
		out[i] = v
	}
	return out
}
