package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store/storetest"
)

// frameEnds parses a healthy WAL segment and returns the byte offset
// just past each frame, so tests can map an arbitrary crash prefix to
// the number of records that prefix preserves.
func frameEnds(t *testing.T, path string) []int64 {
	t.Helper()
	b := readFileT(t, path)
	var ends []int64
	off := int64(walHeaderLen)
	for off+frameHeaderLen <= int64(len(b)) {
		length := int64(binary.LittleEndian.Uint32(b[off:]))
		end := off + frameHeaderLen + length
		if end > int64(len(b)) {
			break
		}
		ends = append(ends, end)
		off = end
	}
	return ends
}

// TestCrashAtEveryAppendPrefix kills the write path at every byte of
// the active WAL segment: for each prefix length, recovery must admit
// exactly the records whose frames lie entirely inside the prefix,
// repair the tail, and accept new appends on top.
func TestCrashAtEveryAppendPrefix(t *testing.T) {
	base := t.TempDir()
	s, err := Open(base, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 8
	at := time.Now()
	for i := 0; i < n; i++ {
		if err := s.AppendObservation("sort", "c3o", obs(i), at); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	walPath := storetest.NewestWAL(t, base)
	ends := frameEnds(t, walPath)
	if len(ends) != n {
		t.Fatalf("parsed %d frames, want %d", len(ends), n)
	}
	size := storetest.FileSize(t, walPath)

	for keep := int64(0); keep <= size; keep++ {
		img := storetest.CrashImageAtPrefix(t, base, keep)
		s2, err := Open(img, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("keep=%d: Open: %v", keep, err)
		}
		want := 0
		for _, end := range ends {
			if end <= keep {
				want++
			}
		}
		r := replayAll(t, s2)
		if len(r.obs) != want {
			t.Fatalf("keep=%d: replayed %d records, want %d", keep, len(r.obs), want)
		}
		for i, p := range r.obs {
			if !sampleEq(p.Sample, obs(i)) {
				t.Fatalf("keep=%d: record %d is not the prefix record", keep, i)
			}
		}
		// The repaired log must accept and persist new appends.
		if err := s2.AppendObservation("sort", "c3o", obs(900), at); err != nil {
			t.Fatalf("keep=%d: append after repair: %v", keep, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("keep=%d: Close: %v", keep, err)
		}
		s3, err := Open(img, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("keep=%d: second reopen: %v", keep, err)
		}
		r2 := replayAll(t, s3)
		if len(r2.obs) != want+1 || !sampleEq(r2.obs[want].Sample, obs(900)) {
			t.Fatalf("keep=%d: append after repair not replayed (%d records)", keep, len(r2.obs))
		}
		s3.Close()
	}
}

// TestCrashDuringSeal crashes between closing a full segment and
// writing the next segment's header: recovery must keep every sealed
// record and rebuild the active segment.
func TestCrashDuringSeal(t *testing.T) {
	base := t.TempDir()
	s, err := Open(base, Options{Fsync: FsyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := s.AppendObservation("sort", "c3o", obs(i), time.Now()); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(storetest.WALSegments(t, base)) < 3 {
		t.Fatal("test needs several sealed segments")
	}
	tailRecords := len(frameEnds(t, storetest.NewestWAL(t, base)))

	// keep = 0: the rolled segment's file exists but is empty (crash
	// after create, before the header write reached disk). keep = 3:
	// the header itself is torn.
	for _, keep := range []int64{0, 3} {
		img := storetest.CrashImageAtPrefix(t, base, keep)
		s2, err := Open(img, Options{Fsync: FsyncNever, SegmentBytes: 256})
		if err != nil {
			t.Fatalf("keep=%d: Open: %v", keep, err)
		}
		r := replayAll(t, s2)
		if want := n - tailRecords; len(r.obs) != want {
			t.Fatalf("keep=%d: replayed %d, want %d (sealed records only)", keep, len(r.obs), want)
		}
		for i, p := range r.obs {
			if !sampleEq(p.Sample, obs(i)) {
				t.Fatalf("keep=%d: record %d mismatch", keep, i)
			}
		}
		if err := s2.AppendObservation("sort", "c3o", obs(901), time.Now()); err != nil {
			t.Fatalf("keep=%d: append after seal crash: %v", keep, err)
		}
		s2.Close()
	}
}

// TestSealedSegmentBitFlip flips single bits in a sealed WAL segment:
// replay must stop at the longest clean prefix with ErrCorrupt — never
// panic, never admit a mangled record — and the store must stay
// appendable.
func TestSealedSegmentBitFlip(t *testing.T) {
	base := t.TempDir()
	s, err := Open(base, Options{Fsync: FsyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if err := s.AppendObservation("sort", "c3o", obs(i), time.Now()); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs := storetest.WALSegments(t, base)
	if len(segs) < 3 {
		t.Fatal("test needs several sealed segments")
	}
	sealed := segs[0]
	sealedBits := storetest.FileSize(t, sealed) * 8
	// Hit the header, the first frame's length, CRC, and payload, and a
	// spread of positions across the file.
	bits := []int64{1, walHeaderLen * 8, (walHeaderLen + 4) * 8, (walHeaderLen + frameHeaderLen + 2) * 8}
	for frac := int64(1); frac < 8; frac++ {
		bits = append(bits, sealedBits*frac/8)
	}
	for _, bit := range bits {
		if bit >= sealedBits {
			continue
		}
		img := storetest.CloneDir(t, base)
		storetest.FlipBit(t, filepath.Join(img, "wal", filepath.Base(sealed)), bit)
		s2, err := Open(img, Options{Fsync: FsyncNever, SegmentBytes: 256})
		if err != nil {
			t.Fatalf("bit=%d: Open: %v", bit, err)
		}
		var got []int
		replayErr := s2.Replay(ReplayHandler{
			Observation: func(job, env string, smp core.Sample, at time.Time) {
				got = append(got, smp.ScaleOut)
			},
		})
		if replayErr == nil {
			t.Fatalf("bit=%d: replay of a flipped sealed segment succeeded", bit)
		}
		if !errors.Is(replayErr, ErrCorrupt) {
			t.Fatalf("bit=%d: replay error %v does not wrap ErrCorrupt", bit, replayErr)
		}
		// Prefix consistency: whatever was delivered must match the
		// original stream record-for-record.
		for i, sc := range got {
			if want := obs(i).ScaleOut; sc != want {
				t.Fatalf("bit=%d: replayed record %d has scale-out %d, want %d", bit, i, sc, want)
			}
		}
		if len(got) >= n {
			t.Fatalf("bit=%d: replay delivered %d records despite corruption", bit, len(got))
		}
		if err := s2.AppendObservation("sort", "c3o", obs(902), time.Now()); err != nil {
			t.Fatalf("bit=%d: store not appendable after corrupt replay: %v", bit, err)
		}
		s2.Close()
	}
}

// TestCheckpointCrashImages covers crashes around the write-temp +
// rename publish: a torn temp file, a complete-but-unrenamed temp
// file, and bit rot in a published checkpoint.
func TestCheckpointCrashImages(t *testing.T) {
	base := t.TempDir()
	s, err := Open(base, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	blob := saveModel(t, tinyModel(t))
	if err := s.CheckpointModel("sort", "c3o", 3, blob); err != nil {
		t.Fatalf("CheckpointModel: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	published := readFileT(t, filepath.Join(base, "ckpt", "sort_c3o.ckpt"))

	// A torn temp file (garbage) and a complete v4 temp file that never
	// got renamed: both must be discarded, both must leave v3 live.
	completeV4 := func() []byte {
		other := t.TempDir()
		s2, err := Open(other, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if err := s2.CheckpointModel("sort", "c3o", 4, blob); err != nil {
			t.Fatal(err)
		}
		return readFileT(t, filepath.Join(other, "ckpt", "sort_c3o.ckpt"))
	}()
	for name, tmp := range map[string][]byte{
		"torn":     append([]byte("BCKP"), 0xde, 0xad),
		"complete": completeV4,
	} {
		img := storetest.CloneDir(t, base)
		storetest.WriteCheckpointTmp(t, img, "sort_c3o", tmp)
		s2, err := Open(img, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("%s tmp: Open: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(img, "ckpt", "sort_c3o.ckpt.tmp")); !os.IsNotExist(err) {
			t.Fatalf("%s tmp: temp checkpoint survived Open", name)
		}
		ck, ok, err := s2.LoadCheckpoint("sort", "c3o")
		if err != nil || !ok || ck.Version != 3 {
			t.Fatalf("%s tmp: LoadCheckpoint = (v%d, %v, %v), want v3", name, ck.Version, ok, err)
		}
		s2.Close()
	}

	// Bit rot in the published file: load must fail loudly, not panic
	// or return a wrong model.
	for _, bit := range []int64{8, int64(len(published)) * 4, int64(len(published))*8 - 3} {
		img := storetest.CloneDir(t, base)
		storetest.FlipBit(t, filepath.Join(img, "ckpt", "sort_c3o.ckpt"), bit)
		s2, err := Open(img, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("bit=%d: Open: %v", bit, err)
		}
		if _, ok, err := s2.LoadCheckpoint("sort", "c3o"); ok || err == nil {
			t.Fatalf("bit=%d: LoadCheckpoint accepted a flipped checkpoint (ok=%v err=%v)", bit, ok, err)
		}
		if s2.StoreStats().CheckpointErrors == 0 {
			t.Fatalf("bit=%d: corrupt checkpoint not counted", bit)
		}
		s2.Close()
	}
}

// TestKill9Durability is the acceptance test for the fsync=always
// contract: a child process appends under sustained load, printing ACK
// lines only after AppendObservation returns; the parent SIGKILLs it
// mid-stream, reopens the same directory, and verifies that every
// acknowledged record survived with no gaps and the newest
// acknowledged checkpoint version is recoverable.
func TestKill9Durability(t *testing.T) {
	if os.Getenv("STORE_CRASH_CHILD") == "1" {
		kill9Child(t)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestKill9Durability$", "-test.v")
	cmd.Env = append(os.Environ(), "STORE_CRASH_CHILD=1", "STORE_CRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("StdoutPipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	maxAck, maxCkpt := 0, uint64(0)
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		var v int
		if _, err := fmt.Sscanf(line, "ACK %d", &v); err == nil {
			maxAck = v
		} else if _, err := fmt.Sscanf(line, "CKPT %d", &v); err == nil {
			maxCkpt = uint64(v)
		}
		if maxAck >= 120 && maxCkpt >= 1 {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading child output: %v", err)
	}
	if maxAck < 120 {
		t.Fatalf("child exited after only %d acks", maxAck)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no deferred cleanup runs
		t.Fatalf("killing child: %v", err)
	}
	go func() {
		// Drain so the child never blocks on a full pipe before the
		// kill lands.
		for sc.Scan() {
		}
	}()
	_ = cmd.Wait()

	s, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer s.Close()
	seen := map[int]bool{}
	highest := 0
	err = s.Replay(ReplayHandler{
		Observation: func(job, env string, smp core.Sample, at time.Time) {
			var i int
			// RuntimeSec encodes the sequence number (obs(i)).
			i = int((smp.RuntimeSec - 100) / 0.25)
			if seen[i] {
				t.Errorf("record %d replayed twice", i)
			}
			seen[i] = true
			if i > highest {
				highest = i
			}
		},
	})
	if err != nil {
		t.Fatalf("replay after kill: %v", err)
	}
	// Zero lost acknowledged observations...
	if highest < maxAck {
		t.Fatalf("highest recovered record %d < last acknowledged %d", highest, maxAck)
	}
	// ...and prefix consistency: no holes anywhere below the highest
	// surviving record (acknowledged or in-flight).
	for i := 1; i <= highest; i++ {
		if !seen[i] {
			t.Fatalf("record %d missing from recovery (highest %d)", i, highest)
		}
	}
	ck, ok, err := s.LoadCheckpoint("sort", "c3o")
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint after kill = (%v, %v)", ok, err)
	}
	if ck.Version < maxCkpt {
		t.Fatalf("recovered checkpoint v%d < last acknowledged v%d", ck.Version, maxCkpt)
	}
}

// kill9Child runs inside the re-exec'd test binary: append forever
// under FsyncAlways, acknowledging each durable write on stdout, until
// the parent kills the process.
func kill9Child(t *testing.T) {
	dir := os.Getenv("STORE_CRASH_DIR")
	s, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 4096})
	if err != nil {
		fmt.Printf("ERR %v\n", err)
		os.Exit(1)
	}
	blob := saveModel(t, tinyModel(t))
	for i := 1; ; i++ {
		if err := s.AppendObservation("sort", "c3o", obs(i), time.Now()); err != nil {
			fmt.Printf("ERR %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ACK %d\n", i)
		if i%50 == 0 {
			v := uint64(i / 50)
			if err := s.CheckpointModel("sort", "c3o", v, blob); err != nil {
				fmt.Printf("ERR %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("CKPT %d\n", v)
		}
	}
}

// TestDamagedSegmentIsSkipped: Open deletes every WAL segment up to
// the walLast of each compacted segment it trusts, so a damaged
// segment must not be trusted. A flipped bit anywhere in a v2 segment
// (its magic, a frame's length or CRC, the payload) and a v1 segment
// are each counted corrupt and skipped: every live WAL segment after
// it survives, and replay delivers exactly the WAL's records.
func TestDamagedSegmentIsSkipped(t *testing.T) {
	base := t.TempDir()
	s, err := Open(base, Options{Fsync: FsyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := 0
	appendUntil := func(active uint64) {
		for s.w.activeSeq() < active {
			if err := s.AppendObservation("sort", "c3o", obs(n), time.Now()); err != nil {
				t.Fatalf("append: %v", err)
			}
			n++
		}
	}
	appendUntil(3)
	compacted, err := s.CompactNow()
	if err != nil || compacted == 0 {
		t.Fatalf("CompactNow = (%d, %v), want records compacted", compacted, err)
	}
	appendUntil(6)
	if err := s.AppendObservation("sort", "c3o", obs(n), time.Now()); err != nil {
		t.Fatalf("append: %v", err)
	}
	n++
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := filepath.Join(base, "seg", segName(2))
	if got := len(storetest.WALSegments(t, base)); got != 4 {
		t.Fatalf("%d live WAL segments, want 4", got)
	}

	type damage struct {
		name string
		bit  int64 // flipped bit, or -1 for a v1 magic
	}
	const frame = walHeaderLen // the first frame's offset
	cases := []damage{
		{"magic", 0},
		{"version", 4 * 8},
		{"frame length low bit", frame * 8},
		{"frame length high bit", (frame+3)*8 + 7},
		{"frame CRC", (frame + 4) * 8},
		{"v1 magic", -1},
	}
	segBits := storetest.FileSize(t, seg) * 8
	for frac := int64(1); frac < 8; frac++ {
		cases = append(cases, damage{fmt.Sprintf("payload %d/8", frac), (frame+frameHeaderLen)*8 + (segBits-(frame+frameHeaderLen)*8)*frac/8})
	}
	cases = append(cases, damage{"last bit", segBits - 1})
	for _, c := range cases {
		img := storetest.CloneDir(t, base)
		path := filepath.Join(img, "seg", filepath.Base(seg))
		if c.bit < 0 {
			b := readFileT(t, path)
			copy(b, []byte{'B', 'S', 'E', 'G', 1, 0, 0, 0})
			writeFileT(t, path, b)
		} else {
			storetest.FlipBit(t, path, c.bit)
		}
		s2, err := Open(img, Options{Fsync: FsyncNever, SegmentBytes: 256})
		if err != nil {
			t.Fatalf("%s: Open: %v", c.name, err)
		}
		if got := len(storetest.WALSegments(t, img)); got != 4 {
			t.Fatalf("%s: %d WAL segments after Open, want all 4", c.name, got)
		}
		if got := s2.StoreStats().CorruptSegments; got != 1 {
			t.Fatalf("%s: corrupt_segments = %d after Open, want 1", c.name, got)
		}
		r := replayAll(t, s2)
		if want := n - compacted; len(r.obs) != want {
			t.Fatalf("%s: replayed %d observations, want the WAL's %d", c.name, len(r.obs), want)
		}
		for i, p := range r.obs {
			if !sampleEq(p.Sample, obs(compacted+i)) {
				t.Fatalf("%s: replayed observation %d is not obs(%d)", c.name, i, compacted+i)
			}
		}
		if st := s2.StoreStats(); st.CorruptSegments != 1 || st.CompactSegments != 0 {
			t.Fatalf("%s: after replay corrupt_segments = %d, compact_segments = %d, want 1 and 0", c.name, st.CorruptSegments, st.CompactSegments)
		}
		s2.Close()
	}
}

// TestUndecodableSegmentFrameIsSkipped: a frame whose CRC holds but
// whose series block does not decode (a writer bug, or damage the CRC
// missed) passes Open's scan. Replay counts the segment corrupt, skips
// the rest of it and goes on, instead of stopping with ErrCorrupt.
func TestUndecodableSegmentFrameIsSkipped(t *testing.T) {
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
	if _, err := s.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("%d compacted segments, want 1", len(segs))
	}
	bad := appendString(appendString(nil, "sort"), "c3o")
	bad = append(bad, 0xff) // a truncated sample count
	writeFileT(t, segs[0], appendFrame(readFileT(t, segs[0]), bad))

	s2, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if st := s2.StoreStats(); st.CorruptSegments != 0 || st.CompactSegments != 1 {
		t.Fatalf("after Open corrupt_segments = %d, compact_segments = %d, want 0 and 1", st.CorruptSegments, st.CompactSegments)
	}
	r := replayAll(t, s2)
	if len(r.obs) != n {
		t.Fatalf("replayed %d observations, want %d (the frames before the bad one and the WAL)", len(r.obs), n)
	}
	if c := s2.StoreStats().CorruptSegments; c != 1 {
		t.Fatalf("corrupt_segments = %d after replay, want 1", c)
	}
}

// TestCheckpointHeaderFlipsAreCorrupt: every byte of a checkpoint's
// header is covered by its CRC. A flipped version, WAL sequence or
// timestamp must fail the load, never publish a wrong version.
func TestCheckpointHeaderFlipsAreCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := s.CheckpointModel("sort", "c3o", 7, saveModel(t, tinyModel(t))); err != nil {
		t.Fatalf("CheckpointModel: %v", err)
	}
	img := readFileT(t, filepath.Join(dir, "ckpt", "sort_c3o.ckpt"))
	if _, err := decodeCheckpoint(img); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
	for i := 0; i < ckptHeaderLen; i++ {
		for _, bit := range []byte{0x01, 0x80} {
			b := append([]byte(nil), img...)
			b[i] ^= bit
			if ck, err := decodeCheckpoint(b); err == nil {
				t.Fatalf("byte %d ^ %#x: decoded version %d, want an error", i, bit, ck.Version)
			}
		}
	}
}
