package encoding

import "fmt"

// Binarizer converts natural numbers to fixed-width binary vectors
// (paper Eq. 4, first case). A value v is representable iff v < 2^Dim.
type Binarizer struct {
	// Dim is the number of output bits L.
	Dim int
}

// NewBinarizer builds a binarizer with the given bit width.
func NewBinarizer(dim int) *Binarizer { return &Binarizer{Dim: dim} }

// Encode returns the little-endian binary representation of v as a
// 0/1-valued vector of length Dim. It errors when v does not fit, which
// is the paper's p <= 2^L constraint.
func (b *Binarizer) Encode(v uint64) ([]float64, error) {
	if b.Dim <= 0 {
		return nil, fmt.Errorf("encoding: Binarizer.Dim must be positive, got %d", b.Dim)
	}
	if b.Dim < 64 && v >= 1<<uint(b.Dim) {
		return nil, fmt.Errorf("encoding: value %d does not fit in %d bits", v, b.Dim)
	}
	out := make([]float64, b.Dim)
	b.EncodeTo(out, v)
	return out, nil
}

// EncodeTo writes the little-endian bits of v over dst without
// allocating; the caller has checked that v fits len(dst) bits.
func (b *Binarizer) EncodeTo(dst []float64, v uint64) {
	for i := range dst {
		dst[i] = float64(v & 1)
		v >>= 1
	}
}

// Decode inverts Encode, tolerating any vector whose entries round to
// 0 or 1 (useful for testing reconstruction quality).
func (b *Binarizer) Decode(bits []float64) uint64 {
	var v uint64
	for i, x := range bits {
		if i >= 64 {
			break
		}
		if x > 0.5 {
			v |= 1 << uint(i)
		}
	}
	return v
}
