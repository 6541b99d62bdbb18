package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
)

// Checkpoint file layout:
//
//	header   8 bytes  "BCKP" version
//	version  u64 LE   registry version the blob was installed as
//	walSeq   u64 LE   active WAL sequence when the checkpoint was cut
//	at       i64 LE   unix nanoseconds of the checkpoint
//	blobLen  u32 LE
//	crc      u32 LE   CRC32C of the 36 header bytes before it
//	blob     core model format v2 (float32 weights), as core.Model.Save
//	         writes it
//
// The blob carries its own CRC32C trailer, which core.Load checks; the
// header CRC guards what only the checkpoint knows, so a flipped bit in
// version cannot publish a wrong version. Layout v1 covered the blob
// instead and left the header unchecked: a v1 file fails the magic and
// is reported corrupt. So is a blob of core format v1 (float64 weights)
// or from before it (gob), which fails core.Load. Either way the base
// model serves.
//
// A checkpoint is published by publishFile (write-temp, fsync,
// rename): a crash mid-write leaves a .tmp file (deleted on the next
// Open) and the previous checkpoint — never a torn published file.
var ckptMagic = []byte{'B', 'C', 'K', 'P', 2, 0, 0, 0}

const ckptHeaderLen = 8 + 8 + 8 + 8 + 4 + 4

// ckptName maps a model key to its checkpoint file name, mirroring
// serve.ModelFileName.
func ckptName(job, env string) string {
	if env == "" {
		return job + ".ckpt"
	}
	return job + "_" + env + ".ckpt"
}

// ckptKeyOK mirrors the serve layer's key restriction ([A-Za-z0-9.-],
// no ".."): checkpoint names embed the key in a file name, and keys
// originate from HTTP input, so the store re-validates rather than
// trusting its callers.
func ckptKeyOK(part string) bool {
	for _, r := range part {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
		case r == '.':
			if strings.Contains(part, "..") {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CheckpointModel atomically persists one installed model version:
// blob is the serialized model (core.Model.Save bytes), version the
// registry version it was published as. The previous checkpoint of
// the key, if any, is replaced only by the completed rename.
func (s *Store) CheckpointModel(job, env string, version uint64, blob []byte) error {
	if job == "" || !ckptKeyOK(job) || !ckptKeyOK(env) {
		s.checkpointErrors.Add(1)
		return fmt.Errorf("store: invalid checkpoint key %q/%q", job, env)
	}
	buf := encodeCheckpoint(version, s.w.activeSeq(), time.Now().UnixNano(), blob)
	if err := publishFile(filepath.Join(s.ckptDir, ckptName(job, env)), buf); err != nil {
		s.checkpointErrors.Add(1)
		return err
	}
	s.checkpoints.Add(1)
	return nil
}

// encodeCheckpoint renders one checkpoint image.
func encodeCheckpoint(version, walSeq uint64, at int64, blob []byte) []byte {
	buf := make([]byte, 0, ckptHeaderLen+len(blob))
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, walSeq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(at))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return append(buf, blob...)
}

// Checkpoint carries one recovered model version and its generation
// metadata.
type Checkpoint struct {
	Model   *core.Model
	Version uint64
	WALSeq  uint64
	At      int64
}

// LoadCheckpoint recovers the persisted model version of a key. The
// boolean reports whether a checkpoint exists; a corrupt checkpoint
// reports (false, error) so callers can fall back to the base model
// while surfacing the fault in the counters.
func (s *Store) LoadCheckpoint(job, env string) (Checkpoint, bool, error) {
	if job == "" || !ckptKeyOK(job) || !ckptKeyOK(env) {
		return Checkpoint{}, false, fmt.Errorf("store: invalid checkpoint key %q/%q", job, env)
	}
	b, err := os.ReadFile(filepath.Join(s.ckptDir, ckptName(job, env)))
	if os.IsNotExist(err) {
		return Checkpoint{}, false, nil
	}
	if err != nil {
		s.checkpointErrors.Add(1)
		return Checkpoint{}, false, fmt.Errorf("store: reading checkpoint: %w", err)
	}
	ck, err := decodeCheckpoint(b)
	if err != nil {
		s.checkpointErrors.Add(1)
		return Checkpoint{}, false, fmt.Errorf("store: checkpoint %s: %w", ckptName(job, env), err)
	}
	s.checkpointLoads.Add(1)
	return ck, true, nil
}

// decodeCheckpoint validates and deserializes one checkpoint image.
func decodeCheckpoint(b []byte) (Checkpoint, error) {
	if len(b) < ckptHeaderLen {
		return Checkpoint{}, fmt.Errorf("shorter than its header")
	}
	if string(b[:8]) != string(ckptMagic) {
		return Checkpoint{}, fmt.Errorf("bad magic")
	}
	if crc32.Checksum(b[:ckptHeaderLen-4], castagnoli) != binary.LittleEndian.Uint32(b[ckptHeaderLen-4:]) {
		return Checkpoint{}, fmt.Errorf("header CRC mismatch")
	}
	ck := Checkpoint{
		Version: binary.LittleEndian.Uint64(b[8:]),
		WALSeq:  binary.LittleEndian.Uint64(b[16:]),
		At:      int64(binary.LittleEndian.Uint64(b[24:])),
	}
	blobLen := int64(binary.LittleEndian.Uint32(b[32:]))
	if int64(len(b))-ckptHeaderLen != blobLen {
		return Checkpoint{}, fmt.Errorf("blob length %d != %d remaining bytes", blobLen, len(b)-ckptHeaderLen)
	}
	m, err := core.Load(bytes.NewReader(b[ckptHeaderLen:]))
	if err != nil {
		return Checkpoint{}, err
	}
	ck.Model = m
	return ck, nil
}
