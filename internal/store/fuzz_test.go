package store

import (
	"bytes"
	"testing"
	"time"
)

// recordEq compares two decoded WAL records semantically (NaN runtime
// bit patterns compare via re-encoding, which is lossless).
func recordEq(a, b walRecord) bool {
	if a.typ != b.typ || a.job != b.job || a.env != b.env || a.at != b.at || a.fresh != b.fresh {
		return false
	}
	return sampleEq(a.sample, b.sample)
}

// FuzzWALRecord pins the WAL record decoder: arbitrary input must
// either be rejected with an error or decode to a record that
// re-encodes and re-decodes to the same value. It must never panic,
// over-read, or over-allocate.
func FuzzWALRecord(f *testing.F) {
	f.Add(appendObservation(nil, "sort", "c3o", obs(1), 1_700_000_000_000_000_000))
	f.Add(appendObservation(nil, "a", "", obs(0), -5))
	f.Add(appendDigest(nil, "grep", "cluster-9", 12, 42))
	f.Add([]byte{})
	f.Add([]byte{recObservation})
	f.Add([]byte{recDigest, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRecord(data)
		if err != nil {
			return
		}
		var re []byte
		switch r.typ {
		case recObservation:
			re = appendObservation(nil, r.job, r.env, r.sample, r.at)
		case recDigest:
			re = appendDigest(nil, r.job, r.env, r.fresh, r.at)
		default:
			t.Fatalf("decodeRecord returned unknown type %d without error", r.typ)
		}
		r2, err := decodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if !recordEq(r, r2) {
			t.Fatalf("record not stable under re-encode: %+v vs %+v", r, r2)
		}
	})
}

// fuzzSegmentImage builds a small, valid two-series segment for the
// seed corpus.
func fuzzSegmentImage() []byte {
	series := map[seriesKey]*seriesData{}
	var order []seriesKey
	base := int64(1_700_000_000_000_000_000)
	for i := 0; i < 12; i++ {
		job := "sort"
		if i%3 == 0 {
			job = "grep"
		}
		k := seriesKey{job: job, env: "c3o"}
		sd, ok := series[k]
		if !ok {
			sd = &seriesData{}
			series[k] = sd
			order = append(order, k)
		}
		sd.add(walRecord{
			typ: recObservation, job: k.job, env: k.env,
			at: base + int64(i)*int64(time.Second), sample: obs(i),
		})
	}
	sd := series[seriesKey{job: "sort", env: "c3o"}]
	sd.digests = append(sd.digests, digestMark{pos: 3, at: base, fresh: 3})
	return buildSegmentImage(order, series, 1, 4)
}

// FuzzSegmentFooter pins the compacted-segment parser: arbitrary bytes
// must either fail parseSegment, fail block decode, or decode cleanly —
// never panic, read out of bounds, or allocate proportionally to a
// corrupt count instead of the input size.
func FuzzSegmentFooter(f *testing.F) {
	img := fuzzSegmentImage()
	f.Add(img)
	// Truncations and a bit flip seed the interesting failure paths.
	f.Add(img[:len(img)-1])
	f.Add(img[:segHeaderLen+segFooterLen])
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := parseSegment(data)
		if err != nil {
			return
		}
		for _, e := range g.index {
			var n int64
			decodeErr := g.decodeSeriesBlock(e,
				func(p ObsPoint) { n++ },
				func(at int64, fresh int) {})
			// A block that decodes must agree with its index count.
			if decodeErr == nil && n != e.count {
				t.Fatalf("series %s/%s decoded %d points, index count %d", e.job, e.env, n, e.count)
			}
		}
	})
}

// TestFuzzSeedsRoundTrip keeps the seed corpus honest: the canonical
// seeds must decode successfully, not just avoid panics.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	p := appendObservation(nil, "sort", "c3o", obs(1), 99)
	if _, err := decodeRecord(p); err != nil {
		t.Fatalf("observation seed does not decode: %v", err)
	}
	img := fuzzSegmentImage()
	g, err := parseSegment(img)
	if err != nil {
		t.Fatalf("segment seed does not parse: %v", err)
	}
	n := 0
	for _, e := range g.index {
		if err := g.decodeSeriesBlock(e, func(ObsPoint) { n++ }, nil); err != nil {
			t.Fatalf("segment seed block decode: %v", err)
		}
	}
	if n != 12 {
		t.Fatalf("segment seed decoded %d samples, want 12", n)
	}
	if !bytes.Equal(img, fuzzSegmentImage()) {
		t.Fatal("segment image build is not deterministic")
	}
}

// FuzzDecodeCheckpoint pins the checkpoint decoder: arbitrary bytes
// must either be rejected with an error or decode to a model whose
// image, encoded again from the decoded header fields, is the input
// byte for byte. It must never panic.
func FuzzDecodeCheckpoint(f *testing.F) {
	img := encodeCheckpoint(7, 3, 1_700_000_000_000_000_000, saveModel(f, tinyModel(f)))
	f.Add(img)
	f.Add(img[:ckptHeaderLen])
	f.Add(img[:len(img)-1])
	f.Add(img[:ckptHeaderLen-1])
	for _, i := range []int{8, 35, 36, ckptHeaderLen + 8, len(img) - 1} {
		flipped := append([]byte(nil), img...)
		flipped[i] ^= 0x01
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		if ck.Model == nil {
			t.Fatal("decodeCheckpoint returned no model and no error")
		}
		if re := encodeCheckpoint(ck.Version, ck.WALSeq, ck.At, data[ckptHeaderLen:]); !bytes.Equal(re, data) {
			t.Fatal("decoded checkpoint does not re-encode to its image")
		}
	})
}
