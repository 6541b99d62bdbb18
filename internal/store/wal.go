package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncPolicy picks the durability/latency trade-off of WAL appends.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged
	// observation survives kill -9 and power loss. This is the
	// default; it bounds ingest throughput by device sync latency.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per fsyncEvery, piggybacked on
	// the append path (plus on every segment seal and on Close). A
	// crash can lose up to one interval of acknowledged observations.
	FsyncInterval
	// FsyncNever leaves flushing to the OS page cache. A crash of the
	// process alone loses nothing (the kernel still holds the writes);
	// a machine crash can lose or even reorder unflushed segments.
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// castagnoli is the CRC32C table shared by frames and checkpoints.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walMagic is the 8-byte header of every WAL segment file: magic plus
// format version.
var walMagic = []byte{'B', 'W', 'A', 'L', 1, 0, 0, 0}

// Frame layout, shared by WAL segments, snapshots and the records
// inside a snapshot frame: after the file's 8-byte magic (none inside a
// frame), a run of frames
//
//	length   u32 LE   payload bytes
//	crc      u32 LE   CRC32C of the payload
//	payload
//
// appendFrame is the one encoder and scanFrames the one reader; the
// kinds differ only in magic, payload, and frame bound.
const (
	walHeaderLen   = 8
	frameHeaderLen = 8
)

// appendFrame appends payload to dst as one frame.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// File extensions of WAL segments and snapshots. Both are named for a
// WAL sequence number in fixed-width hex, so names sort by sequence.
const (
	walExt = ".wal"
	segExt = ".seg"
)

// seqName renders a sequence number as a file name with extension ext.
func seqName(seq uint64, ext string) string { return fmt.Sprintf("%016x%s", seq, ext) }

// walName renders a segment sequence number as its file name.
func walName(seq uint64) string { return seqName(seq, walExt) }

// wal is the segmented append-only log. One file at a time is active;
// appends that would push it past segBytes seal it (sync + close) and
// roll to the next sequence number. Sealed segments are immutable and
// become compaction input.
type wal struct {
	dir      string
	policy   FsyncPolicy
	segBytes int64
	log      *slog.Logger

	mu       sync.Mutex
	f        *os.File
	seq      uint64
	size     int64
	lastSync time.Time
	frame    []byte // scratch frame buffer, reused across appends

	appends       atomic.Int64
	appendedBytes atomic.Int64
	fsyncs        atomic.Int64
	seals         atomic.Int64
}

// openActive opens (or creates) the active segment for appending.
// When resume is true the caller verified the file's tail; the write
// offset continues at size.
func (w *wal) openActive(seq uint64, size int64) error {
	path := filepath.Join(w.dir, walName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening WAL segment: %w", err)
	}
	if size == 0 {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return fmt.Errorf("store: resetting WAL segment: %w", err)
		}
		if _, err := f.Write(walMagic); err != nil {
			f.Close()
			return fmt.Errorf("store: writing WAL header: %w", err)
		}
		size = walHeaderLen
		if err := w.syncNew(f); err != nil {
			f.Close()
			return err
		}
	} else if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return fmt.Errorf("store: seeking WAL segment: %w", err)
	}
	w.f, w.seq, w.size = f, seq, size
	return nil
}

// syncNew makes a freshly created segment durable: the file itself and
// its directory entry. Skipped under FsyncNever.
func (w *wal) syncNew(f *os.File) error {
	if w.policy == FsyncNever {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: syncing new WAL segment: %w", err)
	}
	w.fsyncs.Add(1)
	return syncDir(w.dir)
}

// append frames payload (length + CRC32C) and writes it to the active
// segment in a single Write call, rolling segments and syncing per the
// policy. On return under FsyncAlways the record is durable.
func (w *wal) append(payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("store: record of %d bytes exceeds limit %d", len(payload), maxRecordBytes)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	if w.size >= w.segBytes {
		if err := w.sealLocked(); err != nil {
			return err
		}
	}
	w.frame = appendFrame(w.frame[:0], payload)
	if _, err := w.f.Write(w.frame); err != nil {
		return fmt.Errorf("store: appending WAL record: %w", err)
	}
	w.size += int64(len(w.frame))
	w.appends.Add(1)
	w.appendedBytes.Add(int64(len(w.frame)))
	switch w.policy {
	case FsyncAlways:
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
		w.fsyncs.Add(1)
	case FsyncInterval:
		if now := time.Now(); now.Sub(w.lastSync) >= fsyncEvery {
			if err := w.f.Sync(); err != nil {
				return fmt.Errorf("store: syncing WAL: %w", err)
			}
			w.fsyncs.Add(1)
			w.lastSync = now
		}
	}
	return nil
}

// sealLocked syncs and closes the active segment and opens the next
// one. The old segment is always synced — regardless of policy — so a
// sealed segment on disk is complete: compaction may delete it only
// because its bytes are durable.
func (w *wal) sealLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing WAL segment before seal: %w", err)
	}
	w.fsyncs.Add(1)
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing sealed WAL segment: %w", err)
	}
	w.seals.Add(1)
	w.log.Info("store: sealed WAL segment",
		"segment", walName(w.seq), "bytes", w.size)
	return w.openActive(w.seq+1, 0)
}

// activeSeq reports the sequence number of the segment currently
// accepting appends.
func (w *wal) activeSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// close syncs and closes the active segment.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	w.f = nil
	if syncErr != nil {
		return fmt.Errorf("store: syncing WAL on close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("store: closing WAL: %w", closeErr)
	}
	w.fsyncs.Add(1)
	return nil
}

// listSeqs returns the sequence numbers of the files in dir named by
// seqName with extension ext, ascending.
func listSeqs(dir, ext string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		base, ok := strings.CutSuffix(e.Name(), ext)
		if !ok || len(base) != 16 {
			continue
		}
		if seq, err := strconv.ParseUint(base, 16, 64); err == nil {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs, nil
}

// scanResult reports how a frame scan ended.
type scanResult struct {
	// validSize is the byte offset after the last intact frame (the
	// truncation point that repairs a torn tail).
	validSize int64
	// fileSize is the file's size.
	fileSize int64
	// tornErr describes why the scan stopped early (nil when the whole
	// file parsed cleanly). A stop is either a torn tail (crash during
	// append) or corruption (bit rot, lost writes); the two are
	// indistinguishable from the bytes alone, so the caller decides by
	// position: tails of the newest WAL segment are repaired, anything
	// else is surfaced.
	tornErr error
}

func (r scanResult) clean() bool { return r.tornErr == nil }

// scanFile reads one framed file and scans it with scanFrames.
func scanFile(path string, magic []byte, limit int64, fn func(payload []byte) error) (scanResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("store: reading %s: %w", filepath.Base(path), err)
	}
	return scanFrames(b, filepath.Base(path), magic, limit, fn)
}

// scanFrames checks that b starts with magic, then walks its frames,
// calling fn with each intact payload, and reports where (and how) the
// walk ended. A frame claiming more than limit bytes ends the walk like
// a torn one. fn may be nil to only validate; an fn error aborts the
// scan and is returned verbatim. Payloads alias b.
func scanFrames(b []byte, name string, magic []byte, limit int64, fn func(payload []byte) error) (scanResult, error) {
	res := scanResult{fileSize: int64(len(b))}
	if len(b) < len(magic) {
		res.tornErr = fmt.Errorf("store: %s shorter than its header", name)
		return res, nil
	}
	if string(b[:len(magic)]) != string(magic) {
		res.tornErr = fmt.Errorf("store: %s has a bad header", name)
		return res, nil
	}
	off := int64(len(magic))
	for off < int64(len(b)) {
		if int64(len(b))-off < frameHeaderLen {
			res.tornErr = fmt.Errorf("store: torn frame header at offset %d of %s", off, name)
			break
		}
		length := int64(binary.LittleEndian.Uint32(b[off:]))
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if length > limit {
			res.tornErr = fmt.Errorf("store: frame length %d at offset %d of %s exceeds limit %d", length, off, name, limit)
			break
		}
		if off+frameHeaderLen+length > int64(len(b)) {
			res.tornErr = fmt.Errorf("store: torn record at offset %d of %s", off, name)
			break
		}
		payload := b[off+frameHeaderLen : off+frameHeaderLen+length]
		if crc32.Checksum(payload, castagnoli) != sum {
			res.tornErr = fmt.Errorf("store: CRC mismatch at offset %d of %s", off, name)
			break
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return res, err
			}
		}
		off += frameHeaderLen + length
	}
	res.validSize = off
	return res, nil
}

// publishFile atomically replaces path with buf: write a temp file,
// fsync it, rename it over path, fsync the directory. A crash at any
// point leaves either the previous file (plus a .tmp that Open
// deletes) or the complete new one, never a torn path. Snapshots and
// checkpoints are published this way whatever the fsync policy.
func publishFile(path string, buf []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", filepath.Base(tmp), err)
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", filepath.Base(tmp), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: publishing %s: %w", filepath.Base(path), err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames and newly created files in it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing dir %s: %w", dir, err)
	}
	return nil
}
