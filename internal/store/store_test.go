package store

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
)

// obs builds a deterministic observation for test key (job, env) with
// sequence number n folded into every field, so replays can be checked
// value-by-value.
func obs(n int) core.Sample {
	return core.Sample{
		ScaleOut:   1 + n%7,
		RuntimeSec: 100 + float64(n)*0.25,
		Essential: []encoding.Property{
			{Name: "dataset-size", Value: "4GB"},
			{Name: "node-type", Value: "c5.xlarge"},
		},
		Optional: []encoding.Property{
			{Name: "memory", Value: "8GB", Optional: true},
		},
	}
}

func sampleEq(a, b core.Sample) bool {
	if a.ScaleOut != b.ScaleOut || a.RuntimeSec != b.RuntimeSec ||
		len(a.Essential) != len(b.Essential) || len(a.Optional) != len(b.Optional) {
		return false
	}
	for i := range a.Essential {
		if a.Essential[i] != b.Essential[i] {
			return false
		}
	}
	for i := range a.Optional {
		if a.Optional[i] != b.Optional[i] {
			return false
		}
	}
	return true
}

// obsPoint is one replayed observation.
type obsPoint struct {
	At     time.Time
	Sample core.Sample
}

// replayed collects one Replay pass.
type replayed struct {
	obs     []obsPoint
	keys    []string
	digests []int
}

func replayAll(t *testing.T, s *Store) *replayed {
	t.Helper()
	r := &replayed{}
	err := s.Replay(ReplayHandler{
		Observation: func(job, env string, smp core.Sample, at time.Time) {
			r.obs = append(r.obs, obsPoint{At: at, Sample: smp})
			r.keys = append(r.keys, job+"@"+env)
		},
		Digest: func(job, env string, through int, at time.Time) {
			r.digests = append(r.digests, through)
		},
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return r
}

func TestRecordRoundTrip(t *testing.T) {
	at := time.Now().UnixNano()
	s := obs(3)
	p := appendRecord(nil, walRecord{typ: recObservation, job: "sort", env: "c3o", at: at, sample: s})
	r, err := decodeRecord(p)
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	if r.typ != recObservation || r.job != "sort" || r.env != "c3o" || r.at != at || !sampleEq(r.sample, s) {
		t.Fatalf("round trip mismatch: %+v", r)
	}
	for _, typ := range []byte{recDigest, recDropped} {
		want := walRecord{typ: typ, job: "grep", at: at, n: 12}
		rd, err := decodeRecord(appendRecord(nil, want))
		if err != nil {
			t.Fatalf("decodeRecord type %d: %v", typ, err)
		}
		if !recordEq(rd, want) {
			t.Fatalf("type %d round trip = %+v, want %+v", typ, rd, want)
		}
	}
	// Strictness: truncations of a valid record must all error.
	for i := 0; i < len(p); i++ {
		if _, err := decodeRecord(p[:i]); err == nil {
			t.Fatalf("decodeRecord accepted a %d-byte truncation", i)
		}
	}
	if _, err := decodeRecord(append(p, 0)); err == nil {
		t.Fatal("decodeRecord accepted a trailing byte")
	}
}

func TestWALAppendReplayRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 100
	base := time.Now()
	for i := 0; i < n; i++ {
		if err := s.AppendObservation("sort", "c3o", obs(i), base.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatalf("AppendObservation %d: %v", i, err)
		}
	}
	if err := s.AppendDigest("sort", "c3o", 42, base.Add(n*time.Second)); err != nil {
		t.Fatalf("AppendDigest: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	r := replayAll(t, s2)
	if len(r.obs) != n {
		t.Fatalf("replayed %d observations, want %d", len(r.obs), n)
	}
	for i, p := range r.obs {
		if !sampleEq(p.Sample, obs(i)) {
			t.Fatalf("observation %d mismatch: %+v", i, p.Sample)
		}
		if r.keys[i] != "sort@c3o" {
			t.Fatalf("observation %d key = %s", i, r.keys[i])
		}
		if got, want := p.At.UnixNano(), base.Add(time.Duration(i)*time.Second).UnixNano(); got != want {
			t.Fatalf("observation %d timestamp = %d, want %d", i, got, want)
		}
	}
	if len(r.digests) != 1 || r.digests[0] != 42 {
		t.Fatalf("replayed digests = %v, want [42]", r.digests)
	}
	st := s2.StoreStats()
	if st.ReplayedObservations != n || st.ReplayedDigests != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWALSegmentRollAndCompact(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rolls every few records.
	s, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 200
	base := time.Now()
	for i := 0; i < n; i++ {
		job := "sort"
		if i%3 == 0 {
			job = "grep"
		}
		if err := s.AppendObservation(job, "c3o", obs(i), base.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i == 120 {
			if err := s.AppendDigest("sort", "c3o", 80, base); err != nil {
				t.Fatalf("digest: %v", err)
			}
		}
	}
	if s.w.activeSeq() < 3 {
		t.Fatalf("expected several rolled segments, active seq = %d", s.w.activeSeq())
	}
	records, err := s.CompactNow(256)
	if err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if records == 0 {
		t.Fatal("CompactNow compacted nothing despite sealed segments")
	}
	st := s.StoreStats()
	if st.Compactions != 1 || st.CompactSegments != 1 {
		t.Fatalf("stats after compaction = %+v", st)
	}
	// One key's points, from the snapshot plus the residual WAL, in
	// ingestion order.
	var pts []obsPoint
	live := replayAll(t, s)
	for i, k := range live.keys {
		if k == "grep@c3o" {
			pts = append(pts, live.obs[i])
		}
	}
	wantGrep := 0
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			wantGrep++
		}
	}
	if len(pts) != wantGrep {
		t.Fatalf("grep replayed %d points, want %d", len(pts), wantGrep)
	}
	gi := 0
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			continue
		}
		if !sampleEq(pts[gi].Sample, obs(i)) {
			t.Fatalf("grep point %d mismatch", gi)
		}
		gi++
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart: the snapshot and the residual WAL replay as one stream,
	// per-key order intact, nothing lost or doubled.
	s2, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	r := replayAll(t, s2)
	if len(r.obs) != n {
		t.Fatalf("replayed %d observations, want %d", len(r.obs), n)
	}
	if len(r.digests) != 1 || r.digests[0] != 80 {
		t.Fatalf("digests = %v, want [80]", r.digests)
	}
	// Per-key ordering: each key's samples must appear in ingestion
	// order even though compaction grouped them by key.
	next := map[string]int{"sort@c3o": 1, "grep@c3o": 0}
	step := map[string]int{"sort@c3o": 0, "grep@c3o": 0}
	for i, p := range r.obs {
		k := r.keys[i]
		want := next[k] + 3*step[k]
		if k == "sort@c3o" {
			// sort gets indexes not divisible by 3: 1,2,4,5,7,8...
			for want%3 == 0 {
				want++
			}
			if !sampleEq(p.Sample, obs(want)) {
				t.Fatalf("sort sample at replay %d mismatch (want obs(%d))", i, want)
			}
			next[k] = want + 1
			continue
		}
		if !sampleEq(p.Sample, obs(3*step[k])) {
			t.Fatalf("grep sample at replay %d mismatch (want obs(%d))", i, 3*step[k])
		}
		step[k]++
	}
}

// TestStoreStatsDoesNotWaitOnCompaction: CompactNow holds s.mu across
// its scan, write and fsyncs, so a stats scrape must not take it.
func TestStoreStatsDoesNotWaitOnCompaction(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	s.mu.Lock() // as a running compaction does
	defer s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.StoreStats()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("StoreStats blocked on the compaction lock")
	}
}

func TestCompactionIdempotentAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if err := s.AppendObservation("sort", "c3o", obs(i), time.Now()); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// Save the sealed WAL files, compact, then restore the inputs: this
	// is exactly the on-disk state after a crash between snapshot
	// publish and WAL deletion.
	seqs, err := listSeqs(s.walDir, walExt)
	if err != nil {
		t.Fatal(err)
	}
	active := s.w.activeSeq()
	saved := map[uint64][]byte{}
	for _, seq := range seqs {
		if seq < active {
			saved[seq] = readFileT(t, filepath.Join(s.walDir, walName(seq)))
		}
	}
	if len(saved) == 0 {
		t.Fatal("no sealed segments to compact")
	}
	if _, err := s.CompactNow(256); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for seq, b := range saved {
		writeFileT(t, filepath.Join(dir, "wal", walName(seq)), b)
	}

	s2, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	r := replayAll(t, s2)
	if len(r.obs) != n {
		t.Fatalf("replayed %d observations after simulated crash, want %d (no double-count)", len(r.obs), n)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	m := tinyModel(t)
	blob := saveModel(t, m)
	if err := s.CheckpointModel("sort", "c3o", 7, blob); err != nil {
		t.Fatalf("CheckpointModel: %v", err)
	}
	// Overwrite with a newer version: rename replaces atomically.
	if err := s.CheckpointModel("sort", "c3o", 8, blob); err != nil {
		t.Fatalf("CheckpointModel v8: %v", err)
	}
	ck, ok, err := s.LoadCheckpoint("sort", "c3o")
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint = (%v, %v)", ok, err)
	}
	if ck.Version != 8 {
		t.Fatalf("checkpoint version = %d, want 8", ck.Version)
	}
	if ck.Model == nil || ck.Model.Cfg.NumEssential != m.Cfg.NumEssential {
		t.Fatalf("checkpoint model config mismatch")
	}
	if _, ok, err := s.LoadCheckpoint("absent", ""); ok || err != nil {
		t.Fatalf("LoadCheckpoint(absent) = (%v, %v), want (false, nil)", ok, err)
	}
	if err := s.CheckpointModel("../evil", "", 1, blob); err == nil {
		t.Fatal("CheckpointModel accepted a path-traversal key")
	}
	if math.IsNaN(float64(ck.At)) || ck.At == 0 {
		t.Fatal("checkpoint missing timestamp metadata")
	}
}

// TestCheckpointOfOldModelFormatIsCorrupt: a checkpoint whose blob is
// of core format v1 (float64 weights) or predates it (gob, no magic) is
// intact as a checkpoint but fails core.Load, so it is reported and
// counted as corrupt, and the caller falls back to the base model.
func TestCheckpointOfOldModelFormatIsCorrupt(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	m, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := m.Save(&v1); err != nil {
		t.Fatal(err)
	}
	v1.Bytes()[len("BLMYMDL")] = 1 // the version byte of the format
	for i, blob := range [][]byte{[]byte("\x3f\xff\x81\x03\x01\x01\tmodelBlob"), v1.Bytes()} {
		if err := s.CheckpointModel("sort", "c3o", uint64(3+i), blob); err != nil {
			t.Fatalf("CheckpointModel: %v", err)
		}
		_, ok, err := s.LoadCheckpoint("sort", "c3o")
		if ok || err == nil || !strings.Contains(err.Error(), "re-run bellamy train") {
			t.Fatalf("blob %d: LoadCheckpoint = (%v, %v), want a corrupt checkpoint naming the fix", i, ok, err)
		}
		if n := s.StoreStats().CheckpointErrors; n != int64(i+1) {
			t.Fatalf("blob %d: %d checkpoint errors counted, want %d", i, n, i+1)
		}
	}
}
