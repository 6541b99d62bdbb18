package store

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"path/filepath"
)

// Snapshot layout (v3). A snapshot is what compaction keeps of the
// sealed WAL: per key, what replay rebuilds its ring from, in the WAL's
// own records (see appendRecord). It is framed like a WAL segment (see
// appendFrame), under its own magic, one frame per key:
//
//	header  8 bytes  "BSEG" version
//	frames  one per key: compress/flate over the key's records, each
//	        framed as in the WAL: a recDropped record when observations
//	        were dropped, the last keep observations, then the last
//	        digest record
//
// The file is named for walLast, the last WAL sequence it covers, and
// supersedes every WAL segment up to it and every older snapshot. Open
// trusts the newest snapshot that scans clean and deletes what it
// supersedes; one that does not (a bad magic, including v1's and v2's
// columnar segments, a torn or oversized frame, a CRC mismatch) is
// counted corrupt and skipped, and no WAL is deleted on its account.
var snapMagic = []byte{'B', 'S', 'E', 'G', 3, 0, 0, 0}

// maxSnapshotFrameBytes bounds one key's frame, deflated or inflated,
// written or read. What compaction writes is bounded by keep records a
// key, far below it.
const maxSnapshotFrameBytes = 1 << 30

// segName renders a snapshot's file name from the last WAL sequence it
// covers (unique and monotone across compactions).
func segName(walLast uint64) string { return seqName(walLast, segExt) }

// keyTail gathers what a snapshot keeps of one key while compaction
// reads the current snapshot and the sealed WAL, in that order.
type keyTail struct {
	job, env string
	// seen counts the key's observations read, dropped ones included.
	seen int
	// obs holds the newest observations, oldest first: at most keep
	// after each trim, fewer than 2*keep between trims.
	obs []walRecord
	// droppedAt is the newest dropped observation's arrival.
	droppedAt int64
	// digest is the last digest record (typ 0: none), its count capped
	// at the seen it was read at, as replay caps it.
	digest walRecord
}

// tailSet gathers the tails of every key, in order of first
// appearance.
type tailSet struct {
	keep  int
	tails map[[2]string]*keyTail
	order []*keyTail
}

func newTailSet(keep int) *tailSet {
	return &tailSet{keep: keep, tails: map[[2]string]*keyTail{}}
}

// add reads one record, snapshot's or WAL's, in log order.
func (b *tailSet) add(r walRecord) {
	t := b.tails[[2]string{r.job, r.env}]
	if t == nil {
		t = &keyTail{job: r.job, env: r.env}
		b.tails[[2]string{r.job, r.env}] = t
		b.order = append(b.order, t)
	}
	switch r.typ {
	case recObservation:
		t.seen++
		t.obs = append(t.obs, r)
		if len(t.obs) == 2*b.keep {
			t.trim(b.keep)
		}
	case recDigest:
		r.n = min(r.n, t.seen)
		t.digest = r
	case recDropped:
		t.seen += r.n
		t.droppedAt = r.at
	}
}

// trim drops all but the newest keep observations.
func (t *keyTail) trim(keep int) {
	if cut := len(t.obs) - keep; cut > 0 {
		t.droppedAt = t.obs[cut-1].at
		t.obs = append(t.obs[:0], t.obs[cut:]...)
	}
}

// encode renders the snapshot image: per key, its records framed as in
// the WAL and deflated into one frame. Replayed into a ring of capacity
// keep, they leave it as replaying everything read would: the same
// samples, and through the dropped count and the digest, the same seen
// and digested ordinals. Only a key's last digest sets its digested
// ordinal, and once capped its place among the observations no longer
// matters, so it goes last.
func (b *tailSet) encode() ([]byte, error) {
	img := append([]byte(nil), snapMagic...)
	var raw, rec []byte
	frame := func(r walRecord) {
		rec = appendRecord(rec[:0], r)
		raw = appendFrame(raw, rec)
	}
	var deflated bytes.Buffer
	zw, err := flate.NewWriter(&deflated, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	for _, t := range b.order {
		t.trim(b.keep)
		raw = raw[:0]
		if dropped := t.seen - len(t.obs); dropped > 0 {
			frame(walRecord{typ: recDropped, job: t.job, env: t.env, at: t.droppedAt, n: dropped})
		}
		for _, r := range t.obs {
			frame(r)
		}
		if t.digest.typ != 0 {
			frame(t.digest)
		}
		if len(raw) > maxSnapshotFrameBytes {
			return nil, fmt.Errorf("store: key %s@%s snapshots to %d bytes, over the %d-byte frame limit", t.job, t.env, len(raw), maxSnapshotFrameBytes)
		}
		deflated.Reset()
		zw.Reset(&deflated)
		if _, err := zw.Write(raw); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		img = appendFrame(img, deflated.Bytes())
	}
	return img, nil
}

// decodeSnapshotFrame inflates one snapshot frame, at most
// maxSnapshotFrameBytes of it, and appends its records to dst. It
// fails on the first record frame or record that does not decode.
func decodeSnapshotFrame(dst []walRecord, frame []byte) ([]walRecord, error) {
	zr := flate.NewReader(bytes.NewReader(frame))
	defer zr.Close()
	var raw bytes.Buffer
	n, err := raw.ReadFrom(io.LimitReader(zr, maxSnapshotFrameBytes+1))
	if err != nil {
		return dst, fmt.Errorf("store: inflating a snapshot frame: %w", err)
	}
	if n > maxSnapshotFrameBytes {
		return dst, fmt.Errorf("store: snapshot frame inflates past %d bytes", maxSnapshotFrameBytes)
	}
	res, err := scanFrames(raw.Bytes(), "snapshot frame", nil, maxRecordBytes, func(p []byte) error {
		r, err := decodeRecord(p)
		if err == nil {
			dst = append(dst, r)
		}
		return err
	})
	if err == nil {
		err = res.tornErr
	}
	return dst, err
}

// eachSnapshotRecord streams the trusted snapshot's records into fn, a
// key's frame at a time. A read error, or a frame that does not
// inflate or decode, ends the walk before any of that frame's records
// is delivered; it is counted corrupt, logged and returned.
func (s *Store) eachSnapshotRecord(fn func(walRecord)) error {
	walLast := s.walLast.Load()
	if walLast == 0 {
		return nil
	}
	var recs []walRecord
	res, err := scanFile(filepath.Join(s.segDir, segName(walLast)), snapMagic, maxSnapshotFrameBytes, func(frame []byte) error {
		var err error
		if recs, err = decodeSnapshotFrame(recs[:0], frame); err != nil {
			return err
		}
		for _, r := range recs {
			fn(r)
		}
		return nil
	})
	if err == nil {
		err = res.tornErr
	}
	if err != nil {
		s.corruptSegments.Add(1)
		s.opts.Logger.Error("store: corrupt snapshot", "segment", segName(walLast), "error", err)
	}
	return err
}
