package store

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/store/storetest"
)

// ring is what replay leaves in one key's ring of capacity keep, by
// the rules the lifecycle's rings follow: the newest keep observations,
// the observations seen and the digested ordinal, a digest capped at
// the observations seen before it.
type ring struct {
	obs            []obsPoint
	seen, digested int
}

// replayRings opens dir, replays it into rings of capacity keep and
// closes it.
func replayRings(t *testing.T, dir string, opts Options, keep int) map[string]*ring {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open %s: %v", dir, err)
	}
	defer st.Close()
	rings := map[string]*ring{}
	get := func(job, env string) *ring {
		r := rings[job+"@"+env]
		if r == nil {
			r = &ring{}
			rings[job+"@"+env] = r
		}
		return r
	}
	err = st.Replay(ReplayHandler{
		Observation: func(job, env string, smp core.Sample, at time.Time) {
			r := get(job, env)
			r.seen++
			r.obs = append(r.obs, obsPoint{At: at, Sample: smp})
			if len(r.obs) > keep {
				r.obs = r.obs[1:]
			}
		},
		Digest: func(job, env string, through int, at time.Time) {
			r := get(job, env)
			r.digested = min(through, r.seen)
		},
		Dropped: func(job, env string, n int) { get(job, env).seen += n },
	})
	if err != nil {
		t.Fatalf("Replay %s: %v", dir, err)
	}
	return rings
}

// ringsEqual reports how two replays' rings differ ("" when they do not).
func ringsEqual(got, want map[string]*ring) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d keys, want %d", len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if g == nil {
			return fmt.Sprintf("%s missing", k)
		}
		if g.seen != w.seen || g.digested != w.digested || len(g.obs) != len(w.obs) {
			return fmt.Sprintf("%s: seen %d, digested %d, %d observations; want %d, %d, %d",
				k, g.seen, g.digested, len(g.obs), w.seen, w.digested, len(w.obs))
		}
		for i := range w.obs {
			if !g.obs[i].At.Equal(w.obs[i].At) || !sampleEq(g.obs[i].Sample, w.obs[i].Sample) {
				return fmt.Sprintf("%s: observation %d = %+v, want %+v", k, i, g.obs[i], w.obs[i])
			}
		}
	}
	return ""
}

// TestLargeSeriesCompactsAndReplays compacts a key whose snapshot frame
// is larger than a WAL frame may be: the snapshot's frame bound is its
// own. Kept whole, the key replays after compaction to the rings the
// WAL replays to.
func TestLargeSeriesCompactsAndReplays(t *testing.T) {
	base := t.TempDir()
	opts := Options{Fsync: FsyncNever, SegmentBytes: 256 << 10}
	s, err := Open(base, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// A random 200-byte property value per sample defeats compression,
	// so the ~10k samples of sort in sealed WAL segments deflate to
	// over 1 MiB in one frame.
	const n = 12000
	at := time.Unix(1_700_000_000, 0)
	pad := make([]byte, 100)
	random := rand.NewChaCha8([32]byte{})
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		job := "sort"
		if i%50 == 0 {
			job = "grep"
		}
		seen[job]++
		smp := obs(i)
		random.Read(pad)
		smp.Essential = []encoding.Property{{Name: "dataset-size", Value: hex.EncodeToString(pad)}}
		if err := s.AppendObservation(job, "c3o", smp, at.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i%1000 == 999 {
			if err := s.AppendDigest(job, "c3o", seen[job], at); err != nil {
				t.Fatalf("digest %d: %v", i, err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	walImg := storetest.CloneDir(t, base)

	s, err = Open(base, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := s.CompactNow(n); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(base, "seg", "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("%d snapshots, want 1", len(segs))
	}
	largest := 0
	res, err := scanFile(segs[0], snapMagic, maxSnapshotFrameBytes, func(p []byte) error {
		largest = max(largest, len(p))
		return nil
	})
	if err != nil || !res.clean() {
		t.Fatalf("scanning the snapshot: %v, %v", err, res.tornErr)
	}
	if largest <= maxRecordBytes {
		t.Fatalf("largest snapshot frame is %d bytes, want over maxRecordBytes (%d)", largest, maxRecordBytes)
	}

	want, got := replayRings(t, walImg, opts, n), replayRings(t, base, opts, n)
	if want["sort@c3o"].seen+want["grep@c3o"].seen != n {
		t.Fatalf("the WAL replayed %d + %d observations, want %d", want["sort@c3o"].seen, want["grep@c3o"].seen, n)
	}
	if diff := ringsEqual(got, want); diff != "" {
		t.Fatalf("after compaction: %s", diff)
	}
}

// dirFiles reads every file of a data directory, keyed by its path
// relative to the directory.
func dirFiles(t *testing.T, dataDir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.Walk(dataDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dataDir, path)
		if err == nil {
			files[rel], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatalf("reading %s: %v", dataDir, err)
	}
	return files
}

// restoreFiles writes back each of files (as dirFiles returns them)
// that the data directory no longer has: the image of a crash, or of a
// remove that failed, after a compaction published its snapshot and
// before it deleted what the snapshot supersedes.
func restoreFiles(t *testing.T, dataDir string, files map[string][]byte) {
	t.Helper()
	for rel, b := range files {
		path := filepath.Join(dataDir, rel)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			writeFileT(t, path, b)
		}
	}
}

// TestSnapshotCrashImages: a compaction that published its snapshot
// and was cut short before deleting what it supersedes (by a crash, or
// a remove that failed) leaves the old snapshot and the WAL inputs
// behind. The images are made, as storetest's are, from a healthy data
// directory with no hooks in the write path.
//   - Open trusts the newest snapshot, deletes the rest, and replays as
//     the crash-free store does.
//   - With the newest snapshot's byte flipped, Open counts it corrupt,
//     trusts the old one and deletes no WAL it covered; replay is still
//     the crash-free one.
//   - Left behind under a running store, the next compaction deletes
//     them and reads none of them again.
func TestSnapshotCrashImages(t *testing.T) {
	const keep = 8
	opts := Options{Fsync: FsyncNever, SegmentBytes: 256}
	base := t.TempDir()
	s, err := Open(base, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := 0
	at := time.Unix(1_700_000_000, 0)
	appendUntil := func(s *Store, active uint64) {
		for s.w.activeSeq() < active {
			job := []string{"sort", "grep"}[n%2]
			if err := s.AppendObservation(job, "c3o", obs(n), at.Add(time.Duration(n)*time.Second)); err != nil {
				t.Fatalf("append: %v", err)
			}
			if n%7 == 6 {
				if err := s.AppendDigest(job, "c3o", n/2-2, at); err != nil {
					t.Fatalf("digest: %v", err)
				}
			}
			n++
		}
	}
	compact := func(s *Store) {
		if c, err := s.CompactNow(keep); err != nil || c == 0 {
			t.Fatalf("CompactNow = (%d, %v), want records compacted", c, err)
		}
	}
	appendUntil(s, 4)
	compact(s)
	oldSnap := filepath.Join("seg", segName(s.walLast.Load()))
	appendUntil(s, 9)
	// The old snapshot and the sealed WAL segments 4 to 8, which the
	// next compaction supersedes.
	superseded := dirFiles(t, base)
	compact(s)
	newSnap := filepath.Join("seg", segName(s.walLast.Load()))
	appendUntil(s, 10)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := replayRings(t, storetest.CloneDir(t, base), opts, keep)

	// What Open leaves: one snapshot, and only WAL segments after it.
	checkSuperseded := func(name, dir string, walLast uint64) {
		t.Helper()
		snaps, _ := listSeqs(filepath.Join(dir, "seg"), segExt)
		seqs, _ := listSeqs(filepath.Join(dir, "wal"), walExt)
		if len(snaps) != 1 || snaps[0] != walLast || len(seqs) == 0 || seqs[0] <= walLast {
			t.Fatalf("%s: snapshots %v and WAL segments %v left, want only %d and WAL after it", name, snaps, seqs, walLast)
		}
	}

	img := storetest.CloneDir(t, base)
	restoreFiles(t, img, superseded)
	if _, err := os.Stat(filepath.Join(img, oldSnap)); err != nil {
		t.Fatalf("the crash image lacks the old snapshot: %v", err)
	}
	s2, err := Open(img, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st := s2.StoreStats(); st.CorruptSegments != 0 || st.CompactSegments != 1 {
		t.Fatalf("corrupt_segments %d, compact_segments %d, want 0 and 1", st.CorruptSegments, st.CompactSegments)
	}
	s2.Close()
	checkSuperseded("published, nothing deleted", img, s.walLast.Load())
	if diff := ringsEqual(replayRings(t, img, opts, keep), want); diff != "" {
		t.Fatalf("published, nothing deleted: %s", diff)
	}

	img = storetest.CloneDir(t, base)
	restoreFiles(t, img, superseded)
	storetest.FlipBit(t, filepath.Join(img, newSnap), storetest.FileSize(t, filepath.Join(img, newSnap))*4)
	walBefore := storetest.WALSegments(t, img)
	s2, err = Open(img, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st := s2.StoreStats(); st.CorruptSegments != 1 || st.CompactSegments != 1 {
		t.Fatalf("flipped: corrupt_segments %d, compact_segments %d, want 1 and 1", st.CorruptSegments, st.CompactSegments)
	}
	if got := storetest.WALSegments(t, img); len(got) != len(walBefore) {
		t.Fatalf("flipped: Open deleted WAL segments on the corrupt snapshot's account: %d of %d left", len(got), len(walBefore))
	}
	if _, err := os.Stat(filepath.Join(img, newSnap)); err != nil {
		t.Fatalf("flipped: the corrupt snapshot is gone: %v", err)
	}
	s2.Close()
	if diff := ringsEqual(replayRings(t, img, opts, keep), want); diff != "" {
		t.Fatalf("flipped: %s", diff)
	}

	// The same records appended to the crash-free store and to one whose
	// superseded files came back while it ran.
	ref, img := storetest.CloneDir(t, base), storetest.CloneDir(t, base)
	for _, dir := range []string{ref, img} {
		s2, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if dir == img {
			restoreFiles(t, img, superseded)
		}
		start := n
		appendUntil(s2, 13)
		compact(s2)
		if err := s2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if dir == ref {
			n = start
		} else {
			checkSuperseded("left behind", img, s2.walLast.Load())
		}
	}
	if diff := ringsEqual(replayRings(t, img, opts, keep), replayRings(t, ref, opts, keep)); diff != "" {
		t.Fatalf("left behind: %s", diff)
	}
}

// TestSnapshotDoesNotGrowWithHistory: compaction keeps what the ring
// keeps, so a key's snapshot after 10k observations and after 400k
// holds the same 256 of them, in bytes within 10 % of each other.
func TestSnapshotDoesNotGrowWithHistory(t *testing.T) {
	const keep = 256
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, SegmentBytes: 64 << 10}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	at := time.Unix(1_700_000_000, 0)
	n := 0
	var sizes []int64
	for _, total := range []int{10_000, 400_000} {
		for ; n < total; n++ {
			smp := obs(n)
			smp.RuntimeSec = 50 + 400*rng.Float64()
			if err := s.AppendObservation("sort", "c3o", smp, at.Add(time.Duration(n)*time.Second)); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if _, err := s.CompactNow(keep); err != nil {
			t.Fatalf("CompactNow: %v", err)
		}
		snap := filepath.Join(dir, "seg", segName(s.walLast.Load()))
		sizes = append(sizes, storetest.FileSize(t, snap))
		kept := 0
		if err := s.eachSnapshotRecord(func(r walRecord) {
			if r.typ == recObservation {
				kept++
			}
		}); err != nil || kept != keep {
			t.Fatalf("after %d observations the snapshot keeps %d (%v), want %d", total, kept, err, keep)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		start := time.Now()
		if s, err = Open(dir, opts); err != nil {
			t.Fatalf("Open: %v", err)
		}
		replayed := 0
		if err := s.Replay(ReplayHandler{Observation: func(string, string, core.Sample, time.Time) { replayed++ }}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		t.Logf("%d observations: snapshot %d bytes, Open + Replay %v delivering %d", total, sizes[len(sizes)-1], time.Since(start), replayed)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if lo, hi := min(sizes[0], sizes[1]), max(sizes[0], sizes[1]); float64(hi) > 1.1*float64(lo) {
		t.Fatalf("snapshot bytes %d after 10k observations and %d after 400k, want within 10 %%", sizes[0], sizes[1])
	}
}
