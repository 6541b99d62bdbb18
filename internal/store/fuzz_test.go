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

// recordEq compares two decoded records semantically (NaN runtime bit
// patterns compare via re-encoding, which is lossless).
func recordEq(a, b walRecord) bool {
	if a.typ != b.typ || a.job != b.job || a.env != b.env || a.at != b.at || a.n != b.n {
		return false
	}
	return sampleEq(a.sample, b.sample)
}

// FuzzWALRecord pins the record decoder: arbitrary input must either be
// rejected with an error or decode to a record that re-encodes and
// re-decodes to the same value. It must never panic, over-read, or
// over-allocate.
func FuzzWALRecord(f *testing.F) {
	f.Add(appendRecord(nil, walRecord{typ: recObservation, job: "sort", env: "c3o", at: 1_700_000_000_000_000_000, sample: obs(1)}))
	f.Add(appendRecord(nil, walRecord{typ: recObservation, job: "a", at: -5, sample: obs(0)}))
	f.Add(appendRecord(nil, walRecord{typ: recDigest, job: "grep", env: "cluster-9", at: 42, n: 12}))
	f.Add([]byte{})
	f.Add([]byte{recObservation})
	f.Add([]byte{recDigest, 0, 0})
	f.Add(appendRecord(nil, walRecord{typ: recDropped, job: "grep", env: "c3o", at: 42, n: 1 << 40}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRecord(data)
		if err != nil {
			return
		}
		r2, err := decodeRecord(appendRecord(nil, r))
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if !recordEq(r, r2) {
			t.Fatalf("record not stable under re-encode: %+v vs %+v", r, r2)
		}
	})
}

// fuzzSnapshotImage compacts a small two-key log into a real snapshot,
// keeping 4 observations a key: each key's frame carries a dropped
// count, 4 observations and a digest.
func fuzzSnapshotImage(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 15; i++ {
		job := "sort"
		if i%3 == 0 {
			job = "grep"
		}
		if err := s.AppendObservation(job, "c3o", obs(i), base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	for _, job := range []string{"sort", "grep"} {
		if err := s.AppendDigest(job, "c3o", 3, base); err != nil {
			t.Fatalf("digest: %v", err)
		}
	}
	// Reopening rolls the full active segment, sealing every record.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s, err = Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 1}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := s.CompactNow(4); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if len(paths) != 1 {
		t.Fatalf("%d snapshots, want 1", len(paths))
	}
	return readFileT(t, paths[0])
}

// decodeSnapshot scans a snapshot image and decodes its frames as
// Replay does, returning the records of the frames that decoded.
func decodeSnapshot(img []byte) ([]walRecord, scanResult, error) {
	var recs []walRecord
	res, err := scanFrames(img, "snapshot", snapMagic, maxSnapshotFrameBytes, func(frame []byte) error {
		var err error
		recs, err = decodeSnapshotFrame(recs, frame)
		return err
	})
	return recs, res, err
}

// FuzzSnapshot pins the snapshot reader. Arbitrary bytes go through the
// frame scan with each frame's bounded inflate, record frame scan and
// record decode behind it, and, since a mutation rarely keeps a frame's
// CRC intact, straight into the inflate and decodes as one frame's
// payload too. Neither may panic, and together they may allocate no
// more than a fixed multiple of the input: deflate inflates a byte to
// at most 1032, and a decode holds a few words per inflated byte (a
// record's fields, a property's strings; each needs bytes of its own).
func FuzzSnapshot(f *testing.F) {
	img := fuzzSnapshotImage(f)
	f.Add(img)
	f.Add(img[:len(img)-1])
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	firstLen := int(binary.LittleEndian.Uint32(img[len(snapMagic):]))
	f.Add(img[len(snapMagic)+frameHeaderLen : len(snapMagic)+frameHeaderLen+firstLen])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _ = decodeSnapshot(data)
		_, _ = decodeSnapshotFrame(nil, data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 1032*64*uint64(len(data))+256<<10; got > limit {
			t.Fatalf("%d input bytes allocated %d bytes, over the %d limit", len(data), got, limit)
		}
	})
}

// TestFuzzSeedsRoundTrip keeps the seed corpus honest: the canonical
// seeds must decode successfully, not just avoid panics, and the
// checked-in snapshot seed must still be the current format.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	p := appendRecord(nil, walRecord{typ: recObservation, job: "sort", env: "c3o", at: 99, sample: obs(1)})
	if _, err := decodeRecord(p); err != nil {
		t.Fatalf("observation seed does not decode: %v", err)
	}
	corpus := readFileT(t, filepath.Join("testdata", "fuzz", "FuzzSnapshot", "two-series"))
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(corpus)), "go test fuzz v1\n[]byte(")
	seed, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if !ok || err != nil {
		t.Fatalf("testdata two-series seed is not a []byte corpus entry: %v", err)
	}
	for name, img := range map[string][]byte{"fuzzSnapshotImage": fuzzSnapshotImage(t), "testdata two-series": []byte(seed)} {
		recs, res, err := decodeSnapshot(img)
		if err != nil || !res.clean() {
			t.Fatalf("%s does not decode: %v, %v", name, err, res.tornErr)
		}
		// Per key: a dropped count, the 4 kept observations, a digest.
		if len(recs) != 12 {
			t.Fatalf("%s decoded %d records, want 12", name, len(recs))
		}
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
