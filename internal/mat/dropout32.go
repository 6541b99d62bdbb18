package mat

import (
	"fmt"
	"math"
)

// AlphaDropout32 is the training-mode pass of alpha-dropout: unit i
// reads the 16-bit field i%4 of words[i/4] (the low bits first) and is
// kept when the field is below keepBelow. Its slope d y/d x is a when
// kept and +0 when dropped, written to slope, and y = slope·(x − ap) +
// dropped. Every operation rounds on its own, so the asm family's
// 8-lane kernel and the plain family's loop give the same bits. words
// holds at least ⌈len(x)/4⌉ draws.
func AlphaDropout32(y, slope, x []float32, words []uint64, keepBelow uint32, a, ap, dropped float32) {
	n := len(x)
	if len(y) != n || len(slope) != n || len(words) < (n+3)/4 {
		panic(fmt.Sprintf("mat: AlphaDropout32 lengths y %d, slope %d, x %d, words %d", len(y), len(slope), n, len(words)))
	}
	i := 0
	if useAsm {
		if i = n &^ 7; i > 0 {
			vdropout32(&y[0], &slope[0], &x[0], &words[0], i, keepBelow, a, ap, dropped)
		}
	}
	aBits := math.Float32bits(a)
	for ; i < n; i++ {
		field := uint32(words[i/4] >> (16 * (i % 4)) & 0xffff)
		// a's bits masked by the sign of field − keepBelow, which is set
		// exactly when the unit is kept.
		k := math.Float32frombits(aBits & uint32(int32(field-keepBelow)>>31))
		slope[i] = k
		y[i] = k*(x[i]-ap) + dropped
	}
}

// MulElems32 sets dst[i] = a[i]·b[i]. The three slices have one length.
func MulElems32(dst, a, b []float32) {
	n := len(dst)
	if len(a) != n || len(b) != n {
		panic("mat: MulElems32 length mismatch")
	}
	i := 0
	if useAsm {
		if i = n &^ 7; i > 0 {
			vmul32(&dst[0], &a[0], &b[0], i)
		}
	}
	for ; i < n; i++ {
		dst[i] = a[i] * b[i]
	}
}
