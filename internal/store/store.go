package store

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
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
// prefix. A damaged compacted segment does not stop replay: it is
// counted and skipped (see segMagic).
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
//	<dir>/seg/   immutable compacted segments, framed like the WAL
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

	mu   sync.Mutex // guards segs and compaction
	segs []uint64   // walLast of each trusted compacted segment, ascending
	// nsegs mirrors len(segs) so StoreStats never waits on a running
	// compaction.
	nsegs atomic.Int64

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
// leftover temp files, scans every compacted segment, deletes WAL
// segments already covered by a clean one (a crash between segment
// publish and WAL deletion leaves both), repairs the newest WAL
// segment's torn tail, and opens the active segment for appending. It
// does not deliver the history — call Replay for that, before serving
// traffic.
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
	// Scan compacted segments; the clean ones' coverage determines
	// which WAL segments are stale leftovers. ReadDir sorts by name, and
	// segName's fixed-width hex sorts by walLast.
	segEntries, err := os.ReadDir(s.segDir)
	if err != nil {
		return nil, fmt.Errorf("store: listing segment dir: %w", err)
	}
	var maxCovered uint64
	for _, e := range segEntries {
		walLast, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		res, err := scanFile(filepath.Join(s.segDir, e.Name()), segMagic, maxSeriesFrameBytes, nil)
		if err == nil {
			err = res.tornErr
		}
		if err != nil {
			// A published segment that does not scan clean is bit rot
			// (or a v1 file); counted and skipped so the store stays
			// available. Its records are unrecoverable (the WAL that
			// fed it is gone), and no WAL segment is deleted on its
			// account.
			s.corruptSegments.Add(1)
			s.opts.Logger.Error("store: skipping corrupt compacted segment",
				"segment", e.Name(), "error", err)
			continue
		}
		s.segs = append(s.segs, walLast)
		maxCovered = walLast
	}
	s.nsegs.Store(int64(len(s.segs)))

	seqs, err := listWALSegments(s.walDir)
	if err != nil {
		return nil, err
	}
	live := seqs[:0]
	for _, seq := range seqs {
		if seq <= maxCovered {
			// Compaction finished but crashed before deleting this
			// input; its records live in a compacted segment already.
			if err := os.Remove(filepath.Join(s.walDir, walName(seq))); err != nil {
				return nil, fmt.Errorf("store: removing compacted WAL segment: %w", err)
			}
			continue
		}
		live = append(live, seq)
	}
	seqs = live

	s.w = &wal{
		dir:      s.walDir,
		policy:   s.opts.Fsync,
		segBytes: s.opts.SegmentBytes,
		log:      s.opts.Logger,
	}
	activeSeq := maxCovered + 1
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

// ReplayHandler receives the persisted history during Replay. Either
// callback may be nil. Observations of one key arrive in ingestion
// order, interleaved with that key's digest markers exactly where they
// occurred; ordering across keys is not preserved once records have
// been compacted.
type ReplayHandler struct {
	Observation func(job, env string, s core.Sample, at time.Time)
	Digest      func(job, env string, through int, at time.Time)
}

// Replay streams every persisted record — compacted segments first,
// then the remaining WAL segments in sequence order — into h. Call it
// once, after Open and before appending traffic. A compacted segment
// that fails now (Open scanned it clean, so only damage since then or
// a block its CRC could not catch) is counted corrupt and the rest of
// it skipped. If a sealed WAL segment fails validation, replay stops
// at the last clean prefix and the returned error wraps ErrCorrupt;
// the store remains usable.
func (s *Store) Replay(h ReplayHandler) error {
	s.mu.Lock()
	segs := slices.Clone(s.segs)
	s.mu.Unlock()
	for _, walLast := range segs {
		res, err := scanFile(filepath.Join(s.segDir, segName(walLast)), segMagic, maxSeriesFrameBytes, func(payload []byte) error {
			k, block, err := splitSeriesFrame(payload)
			if err != nil {
				return err
			}
			return decodeSeriesBlock(block,
				func(p ObsPoint) {
					s.replayedObs.Add(1)
					if h.Observation != nil {
						h.Observation(k.job, k.env, p.Sample, p.At)
					}
				},
				func(at int64, through int) {
					s.replayedDigests.Add(1)
					if h.Digest != nil {
						h.Digest(k.job, k.env, through, time.Unix(0, at))
					}
				})
		})
		if err == nil {
			err = res.tornErr
		}
		if err != nil {
			s.corruptSegments.Add(1)
			s.opts.Logger.Error("store: replay skipped the rest of a corrupt compacted segment",
				"segment", segName(walLast), "error", err)
		}
	}
	seqs, err := listWALSegments(s.walDir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		res, err := scanFile(filepath.Join(s.walDir, walName(seq)), walMagic, maxRecordBytes, func(payload []byte) error {
			r, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			switch r.typ {
			case recObservation:
				s.replayedObs.Add(1)
				if h.Observation != nil {
					h.Observation(r.job, r.env, r.sample, time.Unix(0, r.at))
				}
			case recDigest:
				s.replayedDigests.Add(1)
				if h.Digest != nil {
					h.Digest(r.job, r.env, r.through, time.Unix(0, r.at))
				}
			}
			return nil
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

// AppendObservation durably logs one observation before the caller
// admits it anywhere else. Under FsyncAlways, return means the record
// survives kill -9.
func (s *Store) AppendObservation(job, env string, sample core.Sample, at time.Time) error {
	payload := appendObservation(nil, job, env, sample, at.UnixNano())
	return s.w.append(payload)
}

// AppendDigest logs that an installed (and checkpointed) model version
// digested a key's observations through an ordinal: the count of the
// key's observations the fine-tune's take consumed. Replay restores
// the ring's freshness from it instead of re-triggering the fine-tune.
func (s *Store) AppendDigest(job, env string, through int, at time.Time) error {
	payload := appendDigest(nil, job, env, through, at.UnixNano())
	return s.w.append(payload)
}

// CompactNow seals nothing but compacts every already-sealed WAL
// segment into one immutable compacted segment, then deletes the
// inputs.
// It reports how many records were compacted (0 when no sealed
// segments exist). Safe to call concurrently with appends; not with
// Replay.
func (s *Store) CompactNow() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	active := s.w.activeSeq()
	seqs, err := listWALSegments(s.walDir)
	if err != nil {
		return 0, err
	}
	var sealed []uint64
	for _, seq := range seqs {
		if seq < active {
			sealed = append(sealed, seq)
		}
	}
	if len(sealed) == 0 {
		return 0, nil
	}
	series := map[seriesKey]*seriesData{}
	var order []seriesKey
	records := 0
	for _, seq := range sealed {
		res, err := scanFile(filepath.Join(s.walDir, walName(seq)), walMagic, maxRecordBytes, func(payload []byte) error {
			r, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			k := seriesKey{job: r.job, env: r.env}
			sd, ok := series[k]
			if !ok {
				sd = &seriesData{}
				series[k] = sd
				order = append(order, k)
			}
			switch r.typ {
			case recObservation:
				sd.add(r)
			case recDigest:
				sd.digests = append(sd.digests, digestMark{pos: len(sd.at), at: r.at, through: r.through})
			}
			records++
			return nil
		})
		if err != nil || !res.clean() {
			// Never compact past damage: the WAL stays as-is so Replay
			// can surface the fault.
			s.corruptSegments.Add(1)
			if err == nil {
				err = res.tornErr
			}
			return 0, fmt.Errorf("store: compaction aborted: %w", err)
		}
	}
	img, err := encodeSegment(order, series)
	if err != nil {
		return 0, err
	}
	walLast := sealed[len(sealed)-1]
	if err := publishFile(filepath.Join(s.segDir, segName(walLast)), img); err != nil {
		return 0, err
	}
	// The segment is durable: the WAL inputs are redundant now.
	for _, seq := range sealed {
		if err := os.Remove(filepath.Join(s.walDir, walName(seq))); err != nil {
			return 0, fmt.Errorf("store: removing compacted WAL segment: %w", err)
		}
	}
	if err := syncDir(s.walDir); err != nil {
		return 0, err
	}
	s.segs = append(s.segs, walLast)
	s.nsegs.Store(int64(len(s.segs)))
	s.compactions.Add(1)
	s.compactedRecords.Add(int64(records))
	s.opts.Logger.Info("store: compacted WAL segments",
		"records", records, "segments", len(sealed), "output", segName(walLast), "bytes", len(img))
	return records, nil
}

// Start launches the background compaction loop. Stop it with Close.
func (s *Store) Start() {
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
					_, _ = s.CompactNow()
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
	seqs, _ := listWALSegments(s.walDir)
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
		CompactSegments:      int(s.nsegs.Load()),
		Checkpoints:          s.checkpoints.Load(),
		CheckpointErrors:     s.checkpointErrors.Load(),
		CheckpointLoads:      s.checkpointLoads.Load(),
	}
}
