package store

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// recordEq compares two decoded WAL records semantically (NaN runtime
// bit patterns compare via re-encoding, which is lossless).
func recordEq(a, b walRecord) bool {
	if a.typ != b.typ || a.job != b.job || a.env != b.env || a.at != b.at || a.through != b.through {
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
			re = appendDigest(nil, r.job, r.env, r.through, r.at)
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
	sd.digests = append(sd.digests, digestMark{pos: 3, at: base, through: 3})
	img, err := encodeSegment(order, series)
	if err != nil {
		panic(err)
	}
	return img
}

// decodeSeriesFrame decodes one segment frame payload as Replay does,
// counting the samples it carries.
func decodeSeriesFrame(payload []byte, samples *int) error {
	_, block, err := splitSeriesFrame(payload)
	if err != nil {
		return err
	}
	return decodeSeriesBlock(block, func(ObsPoint) { *samples++ }, func(int64, int) {})
}

// FuzzSegment pins the compacted-segment reader. Arbitrary bytes go
// through the frame scan with the series decode behind it, and, since
// a mutation rarely keeps a frame's CRC intact, straight into the
// series decode as one frame's payload too. Neither may panic, and
// together they may allocate no more than a fixed multiple of the
// input: a corrupt count must be refused, not allocated for.
func FuzzSegment(f *testing.F) {
	img := fuzzSegmentImage()
	f.Add(img)
	f.Add(img[:len(img)-1])
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	firstLen := int(binary.LittleEndian.Uint32(img[len(segMagic):]))
	f.Add(img[len(segMagic)+frameHeaderLen : len(segMagic)+frameHeaderLen+firstLen])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var n int
		_, _ = scanFrames(data, "fuzz", segMagic, maxSeriesFrameBytes, func(p []byte) error {
			return decodeSeriesFrame(p, &n)
		})
		_ = decodeSeriesFrame(data, &n)
		runtime.ReadMemStats(&after)
		// Each decode may hold a few words per input byte (a sample's
		// columns, a property set's Sample, a property's strings; each
		// needs input bytes of its own) plus one refused property
		// slice.
		if got, limit := after.TotalAlloc-before.TotalAlloc, 256*uint64(len(data))+16<<10; got > limit {
			t.Fatalf("%d input bytes allocated %d bytes, over the %d limit", len(data), got, limit)
		}
	})
}

// TestFuzzSeedsRoundTrip keeps the seed corpus honest: the canonical
// seeds must decode successfully, not just avoid panics, and the
// checked-in segment seed must be the current format's image.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	p := appendObservation(nil, "sort", "c3o", obs(1), 99)
	if _, err := decodeRecord(p); err != nil {
		t.Fatalf("observation seed does not decode: %v", err)
	}
	img := fuzzSegmentImage()
	n := 0
	res, err := scanFrames(img, "seed", segMagic, maxSeriesFrameBytes, func(p []byte) error {
		return decodeSeriesFrame(p, &n)
	})
	if err != nil || !res.clean() {
		t.Fatalf("segment seed does not decode: %v, %v", err, res.tornErr)
	}
	if n != 12 {
		t.Fatalf("segment seed decoded %d samples, want 12", n)
	}
	if !bytes.Equal(img, fuzzSegmentImage()) {
		t.Fatal("segment image build is not deterministic")
	}
	corpus := readFileT(t, filepath.Join("testdata", "fuzz", "FuzzSegment", "two-series"))
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(corpus)), "go test fuzz v1\n[]byte(")
	seed, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if !ok || err != nil {
		t.Fatalf("testdata two-series seed is not a []byte corpus entry: %v", err)
	}
	if !bytes.Equal([]byte(seed), img) {
		t.Fatal("testdata two-series seed is not fuzzSegmentImage(); regenerate the FuzzSegment corpus")
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
