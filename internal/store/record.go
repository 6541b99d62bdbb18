// Package store is the durability layer under the serving stack: an
// append-only write-ahead log for runtime observations, periodic
// compaction of sealed WAL segments into immutable columnar segments
// (framed like the WAL, one frame per series), and atomic
// checkpointing of hot-swapped model versions. Together
// they let a restarted node reconstruct the lifecycle and registry
// state it crashed with: every acknowledged observation is framed and
// CRC-protected in the WAL before ring admission, and every installed
// model version is persisted write-temp + rename before its samples
// are marked digested. Ring purges of shape-invalid samples are not
// logged, so a replayed ring holds them until its next fine-tune
// purges them again.
package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/encoding"
)

// WAL record types. A record's payload starts with its type byte; the
// framing layer (length + CRC32C) is type-agnostic.
const (
	// recObservation is one ingested runtime observation.
	recObservation = 1
	// recDigest records that a successful fine-tune + swap +
	// checkpoint digested a key's observations through an ordinal: the
	// count of the key's observations its take consumed. Replay marks
	// the ring digested through it, reconstructing the ring's freshness
	// instead of re-triggering fine-tunes for installed versions.
	recDigest = 2
)

// Decode limits. Records are produced by this process, so hitting a
// limit during decode means corruption (or fuzzed input), not real
// data: decoding must error out instead of allocating attacker-chosen
// amounts of memory or over-reading.
const (
	maxStrLen = 4096
	maxProps  = 256
	maxScale  = 1 << 30
	// maxDigestN bounds a digest's ordinal. It grows over a key's
	// lifetime, so only what an int holds bounds it.
	maxDigestN = math.MaxInt
)

// walRecord is one decoded WAL payload.
type walRecord struct {
	typ      byte
	job, env string
	at       int64 // unix nanoseconds
	sample   core.Sample
	through  int // recDigest: the key's observations the digest consumed
}

// cursor is a bounds-checked reader over one record payload. Every
// read reports an error instead of panicking or reading past the end,
// which is what the fuzz targets pin.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, fmt.Errorf("store: record truncated at byte %d", c.off)
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("store: bad uvarint at byte %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("store: bad varint at byte %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if c.remaining() < 8 {
		return 0, fmt.Errorf("store: record truncated at byte %d", c.off)
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, nil
}

func (c *cursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStrLen {
		return "", fmt.Errorf("store: string length %d exceeds limit %d", n, maxStrLen)
	}
	if uint64(c.remaining()) < n {
		return "", fmt.Errorf("store: string of %d bytes overruns record at byte %d", n, c.off)
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendProps(dst []byte, props []encoding.Property) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(props)))
	for _, p := range props {
		dst = appendString(dst, p.Name)
		dst = appendString(dst, p.Value)
	}
	return dst
}

func (c *cursor) props(optional bool) ([]encoding.Property, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > maxProps {
		return nil, fmt.Errorf("store: %d properties exceed limit %d", n, maxProps)
	}
	out := make([]encoding.Property, n)
	for i := range out {
		if out[i].Name, err = c.str(); err != nil {
			return nil, err
		}
		if out[i].Value, err = c.str(); err != nil {
			return nil, err
		}
		out[i].Optional = optional
	}
	return out, nil
}

// appendObservation encodes one observation payload onto dst.
func appendObservation(dst []byte, job, env string, s core.Sample, at int64) []byte {
	dst = append(dst, recObservation)
	dst = binary.AppendVarint(dst, at)
	dst = appendString(dst, job)
	dst = appendString(dst, env)
	dst = binary.AppendUvarint(dst, uint64(s.ScaleOut))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.RuntimeSec))
	dst = appendProps(dst, s.Essential)
	dst = appendProps(dst, s.Optional)
	return dst
}

// appendDigest encodes one digest-marker payload onto dst.
func appendDigest(dst []byte, job, env string, through int, at int64) []byte {
	dst = append(dst, recDigest)
	dst = binary.AppendVarint(dst, at)
	dst = appendString(dst, job)
	dst = appendString(dst, env)
	return binary.AppendUvarint(dst, uint64(through))
}

// decodeRecord parses one WAL payload. It is strict: unknown types,
// out-of-range values, and trailing bytes are all errors, so a frame
// whose CRC survived corruption by chance still cannot smuggle a
// malformed record into the rings.
func decodeRecord(p []byte) (walRecord, error) {
	c := cursor{b: p}
	var r walRecord
	var err error
	if r.typ, err = c.byte(); err != nil {
		return r, err
	}
	switch r.typ {
	case recObservation:
		if r.at, err = c.varint(); err != nil {
			return r, err
		}
		if r.job, err = c.str(); err != nil {
			return r, err
		}
		if r.env, err = c.str(); err != nil {
			return r, err
		}
		scale, err := c.uvarint()
		if err != nil {
			return r, err
		}
		if scale == 0 || scale > maxScale {
			return r, fmt.Errorf("store: scale-out %d out of range", scale)
		}
		r.sample.ScaleOut = int(scale)
		bits, err := c.u64()
		if err != nil {
			return r, err
		}
		r.sample.RuntimeSec = math.Float64frombits(bits)
		if r.sample.Essential, err = c.props(false); err != nil {
			return r, err
		}
		if r.sample.Optional, err = c.props(true); err != nil {
			return r, err
		}
	case recDigest:
		if r.at, err = c.varint(); err != nil {
			return r, err
		}
		if r.job, err = c.str(); err != nil {
			return r, err
		}
		if r.env, err = c.str(); err != nil {
			return r, err
		}
		through, err := c.uvarint()
		if err != nil {
			return r, err
		}
		if through > maxDigestN {
			return r, fmt.Errorf("store: digest ordinal %d out of range", through)
		}
		r.through = int(through)
	default:
		return r, fmt.Errorf("store: unknown record type %d", r.typ)
	}
	if c.remaining() != 0 {
		return r, fmt.Errorf("store: %d trailing bytes after record", c.remaining())
	}
	return r, nil
}
