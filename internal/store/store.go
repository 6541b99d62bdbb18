package store

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
)

// DefaultSegmentBytes is the WAL roll size when Options.SegmentBytes
// is left zero.
const DefaultSegmentBytes = 4 << 20

// DefaultCompactInterval is the period of the background compaction
// loop Start launches.
const DefaultCompactInterval = time.Minute

const (
	// fsyncEvery bounds sync frequency under FsyncInterval.
	fsyncEvery = 100 * time.Millisecond
	// maxRecordBytes bounds one WAL frame; replay treats larger
	// claimed lengths as corruption.
	maxRecordBytes = 1 << 20
)

// Options tunes a Store.
type Options struct {
	// Fsync picks the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// SegmentBytes rolls the active WAL segment past this size
	// (<= 0: DefaultSegmentBytes).
	SegmentBytes int64
	// Logger receives structured store events — WAL tail repair,
	// segment seals, corruption, compaction — with the segment and byte
	// counts as fields. Nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// ErrCorrupt marks replay stopping early because a sealed WAL segment
// failed validation. The store stays usable (new appends go to the
// intact active segment); the replayed state is the longest clean
// prefix. A damaged snapshot does not stop replay: it is counted and
// skipped (see snapMagic).
var ErrCorrupt = errors.New("store: corrupt segment")

// ErrClosed rejects appends after Close has sealed the WAL. During a
// graceful drain the HTTP server stops before the store closes, so in
// practice only a misordered shutdown sequence sees it — and it turns
// that bug into a clean rejection instead of a write to a closed file.
var ErrClosed = errors.New("store: closed")

// Store is the durable observation + model store rooted at one data
// directory:
//
//	<dir>/wal/   append-only observation log segments
//	<dir>/seg/   the compacted snapshot: per key, what replay rebuilds
//	             its ring from, in WAL records (see snapMagic); one
//	             file, but for a crash mid-compaction
//	<dir>/ckpt/  atomic model-version checkpoints
//
// Open repairs the WAL tail; Replay streams the persisted history (in
// per-key order) into the caller's sinks; Start launches background
// compaction. All methods are safe for concurrent use once Replay has
// returned.
type Store struct {
	dir     string
	walDir  string
	segDir  string
	ckptDir string
	opts    Options
	w       *wal

	mu sync.Mutex // serializes compactions
	// walLast names the trusted snapshot by the last WAL sequence it
	// covers (0: none). Compaction sets it under mu; StoreStats reads
	// it without waiting on a running compaction.
	walLast atomic.Uint64

	repairedBytes    atomic.Int64
	replayedObs      atomic.Int64
	replayedDigests  atomic.Int64
	corruptSegments  atomic.Int64
	compactions      atomic.Int64
	compactedRecords atomic.Int64
	checkpoints      atomic.Int64
	checkpointErrors atomic.Int64
	checkpointLoads  atomic.Int64

	startOnce, stopOnce sync.Once
	stop, done          chan struct{}
}

// Open prepares the data directory: creates the layout, removes
// leftover temp files, trusts the newest snapshot that scans clean,
// deletes the WAL segments and older snapshots it supersedes (a crash
// between a snapshot's publish and those deletions leaves them),
// repairs the newest WAL segment's torn tail, and opens the active
// segment for appending. It does not deliver the history — call Replay
// for that, before serving traffic.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:     dir,
		walDir:  filepath.Join(dir, "wal"),
		segDir:  filepath.Join(dir, "seg"),
		ckptDir: filepath.Join(dir, "ckpt"),
		opts:    opts.withDefaults(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, d := range []string{s.walDir, s.segDir, s.ckptDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", d, err)
		}
		if err := removeTempFiles(d); err != nil {
			return nil, err
		}
	}
	snaps, err := listSeqs(s.segDir, segExt)
	if err != nil {
		return nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		res, err := scanFile(filepath.Join(s.segDir, segName(snaps[i])), snapMagic, maxSnapshotFrameBytes, nil)
		if err == nil {
			err = res.tornErr
		}
		if err == nil {
			s.walLast.Store(snaps[i])
			break
		}
		// A published snapshot that does not scan clean is bit rot (or
		// an older format); counted and skipped so the store stays
		// available. Its records are unrecoverable if the WAL that fed
		// it is gone, and no WAL segment is deleted on its account.
		s.corruptSegments.Add(1)
		s.opts.Logger.Error("store: skipping corrupt snapshot",
			"segment", segName(snaps[i]), "error", err)
	}
	if err := s.removeCovered(); err != nil {
		return nil, err
	}
	seqs, err := listSeqs(s.walDir, walExt)
	if err != nil {
		return nil, err
	}

	s.w = &wal{
		dir:      s.walDir,
		policy:   s.opts.Fsync,
		segBytes: s.opts.SegmentBytes,
		log:      s.opts.Logger,
	}
	// New segments are numbered above every snapshot, corrupt ones
	// included, so the next compaction supersedes them all.
	activeSeq := uint64(1)
	if n := len(snaps); n > 0 {
		activeSeq = snaps[n-1] + 1
	}
	var activeSize int64
	if n := len(seqs); n > 0 {
		// Repair the newest segment: truncate everything after the
		// last intact frame. Crashes tear only the tail of the newest
		// segment; older segments with bad frames are corruption and
		// are surfaced at Replay, not silently truncated.
		last := seqs[n-1]
		path := filepath.Join(s.walDir, walName(last))
		res, err := scanFile(path, walMagic, maxRecordBytes, nil)
		if err != nil {
			return nil, err
		}
		valid := res.validSize
		if valid < walHeaderLen {
			valid = 0 // header itself torn; rewrite from scratch
		}
		if valid < res.fileSize {
			if err := os.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("store: repairing WAL tail: %w", err)
			}
			s.repairedBytes.Add(res.fileSize - valid)
			s.opts.Logger.Warn("store: repaired torn WAL tail",
				"segment", walName(last), "repaired_bytes", res.fileSize-valid)
		}
		activeSeq, activeSize = last, valid
		if activeSize >= s.opts.SegmentBytes {
			// The crashed process filled this segment; treat it as
			// sealed and roll.
			activeSeq, activeSize = last+1, 0
		}
	}
	if err := s.w.openActive(activeSeq, activeSize); err != nil {
		return nil, err
	}
	return s, nil
}

// removeCovered deletes what the trusted snapshot supersedes: the WAL
// segments it covers and every older snapshot. A crash, or a failed
// remove, between a snapshot's publish and these deletions leaves some
// of them behind; Open and the next compaction try again, and nothing
// reads them meanwhile.
func (s *Store) removeCovered() error {
	walLast := s.walLast.Load()
	if walLast == 0 {
		return nil
	}
	if err := removeSeqs(s.walDir, walExt, walLast); err != nil {
		return err
	}
	return removeSeqs(s.segDir, segExt, walLast-1)
}

// removeSeqs deletes dir's files named by seqName with extension ext
// up to sequence last, then syncs dir if it deleted any.
func removeSeqs(dir, ext string, last uint64) error {
	seqs, err := listSeqs(dir, ext)
	if err != nil {
		return err
	}
	removed := false
	for _, seq := range seqs {
		if seq > last {
			break
		}
		if err := os.Remove(filepath.Join(dir, seqName(seq, ext))); err != nil {
			return fmt.Errorf("store: removing superseded %s: %w", seqName(seq, ext), err)
		}
		removed = true
	}
	if !removed {
		return nil
	}
	return syncDir(dir)
}

func removeTempFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: listing %s: %w", dir, err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("store: removing temp file: %w", err)
			}
		}
	}
	return nil
}

// ReplayHandler receives the persisted history during Replay. Any
// callback may be nil. Observations of one key arrive in ingestion
// order. The snapshot comes first, key by key: a key's dropped count if
// compaction dropped any, its kept observations, then its last digest
// marker, its ordinal capped at the observations seen before it. The
// WAL follows in its global order, digest markers exactly where they
// occurred.
type ReplayHandler struct {
	Observation func(job, env string, s core.Sample, at time.Time)
	Digest      func(job, env string, through int, at time.Time)
	// Dropped delivers the count of a key's observations that
	// compaction dropped because the ring no longer held them: the
	// ring's ordinal counts them, its slots do not.
	Dropped func(job, env string, n int)
}

// Replay streams every persisted record — the snapshot first, then the
// remaining WAL segments in sequence order — into h. Call it once,
// after Open and before appending traffic. A snapshot that fails now
// (Open scanned it clean, so only damage since then or a frame its CRC
// could not catch) is counted corrupt and the rest of it skipped. If a
// sealed WAL segment fails validation, replay stops at the last clean
// prefix and the returned error wraps ErrCorrupt; the store remains
// usable.
func (s *Store) Replay(h ReplayHandler) error {
	// A failure is counted and logged there; the WAL replays anyway.
	_ = s.eachSnapshotRecord(func(r walRecord) { s.deliver(h, r) })
	seqs, err := listSeqs(s.walDir, walExt)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		res, err := scanFile(filepath.Join(s.walDir, walName(seq)), walMagic, maxRecordBytes, func(payload []byte) error {
			r, err := decodeRecord(payload)
			if err == nil {
				s.deliver(h, r)
			}
			return err
		})
		if err != nil {
			// A framed record with a valid CRC that fails decode is
			// corruption the frame checksum cannot see.
			s.corruptSegments.Add(1)
			s.opts.Logger.Error("store: replay stopped at corrupt WAL record",
				"segment", walName(seq), "error", err)
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if !res.clean() {
			// Open repaired the newest segment, so a torn frame here
			// is a sealed segment damaged at rest: stop at the clean
			// prefix.
			s.corruptSegments.Add(1)
			s.opts.Logger.Error("store: replay stopped at damaged sealed segment",
				"segment", walName(seq), "error", res.tornErr)
			return fmt.Errorf("%w: %v", ErrCorrupt, res.tornErr)
		}
	}
	return nil
}

// deliver hands one replayed record to its callback.
func (s *Store) deliver(h ReplayHandler, r walRecord) {
	switch r.typ {
	case recObservation:
		s.replayedObs.Add(1)
		if h.Observation != nil {
			h.Observation(r.job, r.env, r.sample, time.Unix(0, r.at))
		}
	case recDigest:
		s.replayedDigests.Add(1)
		if h.Digest != nil {
			h.Digest(r.job, r.env, r.n, time.Unix(0, r.at))
		}
	case recDropped:
		if h.Dropped != nil {
			h.Dropped(r.job, r.env, r.n)
		}
	}
}

// AppendObservation durably logs one observation before the caller
// admits it anywhere else. Under FsyncAlways, return means the record
// survives kill -9.
func (s *Store) AppendObservation(job, env string, sample core.Sample, at time.Time) error {
	return s.w.append(appendRecord(nil, walRecord{typ: recObservation, job: job, env: env, at: at.UnixNano(), sample: sample}))
}

// AppendDigest logs that an installed (and checkpointed) model version
// digested a key's observations through an ordinal: the count of the
// key's observations the fine-tune's take consumed. Replay restores
// the ring's freshness from it instead of re-triggering the fine-tune.
func (s *Store) AppendDigest(job, env string, through int, at time.Time) error {
	return s.w.append(appendRecord(nil, walRecord{typ: recDigest, job: job, env: env, at: at.UnixNano(), n: through}))
}

// CompactNow seals nothing but compacts the current snapshot and every
// sealed WAL segment after it into one new snapshot that keeps, per
// key, the last keep observations (the ring capacity replay fills), the
// last digest and the count of the observations it dropped, then
// deletes what the new snapshot supersedes. It reports how many WAL
// records were compacted (0 when no sealed segments exist). Safe to
// call concurrently with appends; not with Replay.
func (s *Store) CompactNow(keep int) (int, error) {
	if keep < 1 {
		return 0, fmt.Errorf("store: compaction keeps %d observations a key, want at least 1", keep)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Only segments after the snapshot are inputs: one an earlier
	// compaction failed to delete is covered, and never read again.
	covered, active := s.walLast.Load(), s.w.activeSeq()
	seqs, err := listSeqs(s.walDir, walExt)
	if err != nil {
		return 0, err
	}
	var inputs []uint64
	for _, seq := range seqs {
		if seq > covered && seq < active {
			inputs = append(inputs, seq)
		}
	}
	if len(inputs) == 0 {
		return 0, nil
	}
	b := newTailSet(keep)
	if err := s.eachSnapshotRecord(b.add); err != nil {
		return 0, fmt.Errorf("store: compaction aborted: %w", err)
	}
	records := 0
	for _, seq := range inputs {
		res, err := scanFile(filepath.Join(s.walDir, walName(seq)), walMagic, maxRecordBytes, func(payload []byte) error {
			r, err := decodeRecord(payload)
			if err == nil {
				b.add(r)
				records++
			}
			return err
		})
		if err == nil {
			err = res.tornErr
		}
		if err != nil {
			// Never compact past damage: the WAL stays as-is so Replay
			// can surface the fault.
			s.corruptSegments.Add(1)
			return 0, fmt.Errorf("store: compaction aborted: %w", err)
		}
	}
	img, err := b.encode()
	if err != nil {
		return 0, err
	}
	walLast := inputs[len(inputs)-1]
	if err := publishFile(filepath.Join(s.segDir, segName(walLast)), img); err != nil {
		return 0, err
	}
	// The snapshot is durable: what it supersedes, leftovers of earlier
	// compactions included, is redundant now.
	s.walLast.Store(walLast)
	s.compactions.Add(1)
	s.compactedRecords.Add(int64(records))
	s.opts.Logger.Info("store: compacted WAL segments",
		"records", records, "segments", len(inputs), "keys", len(b.order), "output", segName(walLast), "bytes", len(img))
	return records, s.removeCovered()
}

// Start launches the background compaction loop, which keeps keep
// observations a key (see CompactNow). Stop it with Close.
func (s *Store) Start(keep int) {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(DefaultCompactInterval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					// Best effort: a failed compaction leaves the WAL
					// in place and is retried next tick.
					_, _ = s.CompactNow(keep)
				}
			}
		}()
	})
}

// Close stops compaction and syncs + closes the active WAL segment.
func (s *Store) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) })
	<-s.done
	return s.w.close()
}

// StoreStats snapshots the counters as the "store" block of /v1/stats
// (named to satisfy the serve layer's StoreStatser without a wrapper).
func (s *Store) StoreStats() api.StoreStats {
	seqs, _ := listSeqs(s.walDir, walExt)
	snapshots := 0
	if s.walLast.Load() != 0 {
		snapshots = 1
	}
	return api.StoreStats{
		WALAppends:           s.w.appends.Load(),
		WALAppendedBytes:     s.w.appendedBytes.Load(),
		WALSegments:          len(seqs),
		WALActiveSeq:         s.w.activeSeq(),
		Fsyncs:               s.w.fsyncs.Load(),
		RepairedBytes:        s.repairedBytes.Load(),
		ReplayedObservations: s.replayedObs.Load(),
		ReplayedDigests:      s.replayedDigests.Load(),
		CorruptSegments:      s.corruptSegments.Load(),
		Compactions:          s.compactions.Load(),
		CompactedRecords:     s.compactedRecords.Load(),
		CompactSegments:      snapshots,
		Checkpoints:          s.checkpoints.Load(),
		CheckpointErrors:     s.checkpointErrors.Load(),
		CheckpointLoads:      s.checkpointLoads.Load(),
	}
}
