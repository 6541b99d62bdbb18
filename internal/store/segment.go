package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Compacted segment layout (v2). A segment is the immutable, columnar
// form of a run of sealed WAL segments: observations grouped per
// (job, env) series, digests kept as positions inside their series
// stream. It is framed exactly like a WAL segment (see appendFrame),
// under its own magic, one frame per series:
//
//	header   8 bytes  "BSEG" version
//	frames   one per series: str job | str env | series block
//	         (see encodeSeriesBlock)
//
// The file is named for walLast, the last WAL sequence it replaces;
// Open deletes every WAL segment up to the newest walLast among the
// segments that scan clean. A segment that does not (a bad magic,
// including v1's, a torn or oversized frame, a CRC mismatch) is
// counted corrupt and skipped, and no WAL is deleted on its account.
// Replay is its only reader: it streams each file front to back once.
var segMagic = []byte{'B', 'S', 'E', 'G', 2, 0, 0, 0}

// maxSeriesFrameBytes bounds one series frame, written or read. A
// long-lived series outgrows the WAL's maxRecordBytes, so segments
// have their own bound.
const maxSeriesFrameBytes = 1 << 30

// segName renders a compacted segment's file name from the last WAL
// sequence it covers (unique and monotone across compactions).
func segName(walLast uint64) string { return fmt.Sprintf("%016x.seg", walLast) }

// parseSegName inverts segName.
func parseSegName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".seg")
	if !ok || len(base) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(base, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// seriesKey identifies one observation series.
type seriesKey struct{ job, env string }

// digestMark records a digest inside a series stream: it occurred
// after pos samples of the series had been ingested, and names
// through, the ordinal its WAL record carried.
type digestMark struct {
	pos     int
	at      int64
	through int
}

// seriesData accumulates one series during compaction.
type seriesData struct {
	at      []int64
	scale   []int
	runtime []float64
	propIdx []int
	dict    []propSet
	dictKey map[string]int
	digests []digestMark
}

// propSet is one distinct (essential, optional) property combination.
// Observation streams repeat a handful of property sets per series, so
// samples store a dictionary index instead of the full strings.
type propSet struct {
	enc []byte // appendProps(essential) ++ appendProps(optional)
}

func (sd *seriesData) add(r walRecord) {
	sd.at = append(sd.at, r.at)
	sd.scale = append(sd.scale, r.sample.ScaleOut)
	sd.runtime = append(sd.runtime, r.sample.RuntimeSec)
	enc := appendProps(nil, r.sample.Essential)
	enc = appendProps(enc, r.sample.Optional)
	if sd.dictKey == nil {
		sd.dictKey = map[string]int{}
	}
	idx, ok := sd.dictKey[string(enc)]
	if !ok {
		idx = len(sd.dict)
		sd.dict = append(sd.dict, propSet{enc: enc})
		sd.dictKey[string(enc)] = idx
	}
	sd.propIdx = append(sd.propIdx, idx)
}

// encodeSeriesBlock renders one series:
//
//	count            uvarint
//	timestamps       varint t0, varint delta, then delta-of-delta varints
//	scale-outs       RLE pairs (uvarint value, uvarint run)
//	runtimes         uvarint(bits XOR prevBits) per sample
//	property dict    uvarint n, then each encoded propSet
//	property indexes RLE pairs (uvarint dictIdx, uvarint run)
//	digests          uvarint n, then (uvarint pos, varint at, uvarint through)
//
// The enclosing frame's CRC covers it.
func encodeSeriesBlock(dst []byte, sd *seriesData) []byte {
	n := len(sd.at)
	dst = binary.AppendUvarint(dst, uint64(n))
	// Timestamps, delta-of-delta: observation arrivals are near-
	// periodic under steady load, so second differences hover near 0
	// and encode in one byte.
	var prev, prevDelta int64
	for i, t := range sd.at {
		switch i {
		case 0:
			dst = binary.AppendVarint(dst, t)
		case 1:
			prevDelta = t - prev
			dst = binary.AppendVarint(dst, prevDelta)
		default:
			d := t - prev
			dst = binary.AppendVarint(dst, d-prevDelta)
			prevDelta = d
		}
		prev = t
	}
	// Scale-outs, run-length encoded: a job is usually observed at one
	// scale-out for long stretches.
	for i := 0; i < n; {
		j := i
		for j < n && sd.scale[j] == sd.scale[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(sd.scale[i]))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	// Runtimes: XOR against the previous sample's bits, uvarint of the
	// result. Similar runtimes share sign/exponent/high-mantissa bits,
	// so the XOR clears the low bytes varint elides... the high bytes.
	// XOR keeps it lossless either way; equal values encode as 1 byte.
	var prevBits uint64
	for _, v := range sd.runtime {
		bits := math.Float64bits(v)
		dst = binary.AppendUvarint(dst, bits^prevBits)
		prevBits = bits
	}
	// Property dictionary + per-sample indexes (RLE).
	dst = binary.AppendUvarint(dst, uint64(len(sd.dict)))
	for _, ps := range sd.dict {
		dst = append(dst, ps.enc...)
	}
	for i := 0; i < n; {
		j := i
		for j < n && sd.propIdx[j] == sd.propIdx[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(sd.propIdx[i]))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	// Digest positions.
	dst = binary.AppendUvarint(dst, uint64(len(sd.digests)))
	for _, d := range sd.digests {
		dst = binary.AppendUvarint(dst, uint64(d.pos))
		dst = binary.AppendVarint(dst, d.at)
		dst = binary.AppendUvarint(dst, uint64(d.through))
	}
	return dst
}

// encodeSegment renders a compacted segment image: the header, then
// one frame per series in order.
func encodeSegment(order []seriesKey, series map[seriesKey]*seriesData) ([]byte, error) {
	buf := append([]byte(nil), segMagic...)
	var rec []byte
	for _, k := range order {
		rec = appendString(rec[:0], k.job)
		rec = appendString(rec, k.env)
		rec = encodeSeriesBlock(rec, series[k])
		if len(rec) > maxSeriesFrameBytes {
			return nil, fmt.Errorf("store: series %s@%s encodes to %d bytes, over the %d-byte frame limit", k.job, k.env, len(rec), maxSeriesFrameBytes)
		}
		buf = appendFrame(buf, rec)
	}
	return buf, nil
}

// splitSeriesFrame parses one segment frame's payload into its key and
// its series block.
func splitSeriesFrame(payload []byte) (k seriesKey, block []byte, err error) {
	c := cursor{b: payload}
	if k.job, err = c.str(); err != nil {
		return k, nil, err
	}
	if k.env, err = c.str(); err != nil {
		return k, nil, err
	}
	return k, payload[c.off:], nil
}

// ObsPoint is one decoded observation of a series.
type ObsPoint struct {
	At     time.Time
	Sample core.Sample
}

// decodeSeriesBlock walks one series block, invoking obs per sample
// (in ingestion order) and digest at each digest marker. Either
// callback may be nil. The whole block is decoded before the first
// callback, so a malformed block delivers nothing. Each count is
// checked against the bytes left (a property list against maxProps)
// before anything is allocated for it, so a decode allocates a
// bounded multiple of the block's size, which FuzzSegment pins.
func decodeSeriesBlock(block []byte, obs func(ObsPoint), digest func(at int64, through int)) error {
	c := cursor{b: block}
	nu, err := c.uvarint()
	if err != nil {
		return err
	}
	if nu > uint64(c.remaining()) {
		// Every sample needs at least one timestamp byte; a larger
		// count is a corrupt allocation bomb.
		return fmt.Errorf("store: series count %d exceeds block size %d", nu, len(block))
	}
	n := int(nu)
	at := make([]int64, n)
	var prev, prevDelta int64
	for i := range at {
		v, err := c.varint()
		if err != nil {
			return err
		}
		switch i {
		case 0:
			prev = v
		case 1:
			prevDelta = v
			prev += v
		default:
			prevDelta += v
			prev += prevDelta
		}
		at[i] = prev
	}
	scale := make([]int, n)
	if err := decodeRLE(&c, n, func(i int, v uint64) error {
		if v == 0 || v > maxScale {
			return fmt.Errorf("store: scale-out %d out of range", v)
		}
		scale[i] = int(v)
		return nil
	}); err != nil {
		return err
	}
	rt := make([]float64, n)
	var prevBits uint64
	for i := range rt {
		x, err := c.uvarint()
		if err != nil {
			return err
		}
		prevBits ^= x
		rt[i] = math.Float64frombits(prevBits)
	}
	nd, err := c.uvarint()
	if err != nil {
		return err
	}
	if nd > uint64(c.remaining())/2 {
		// Each property set takes at least its two count bytes.
		return fmt.Errorf("store: dict size %d exceeds block remainder", nd)
	}
	props := make([]core.Sample, nd) // decoded property sets (only the prop fields are used)
	for i := range props {
		ess, err := c.props(false)
		if err != nil {
			return err
		}
		opt, err := c.props(true)
		if err != nil {
			return err
		}
		props[i] = core.Sample{Essential: ess, Optional: opt}
	}
	propIdx := make([]int, n)
	if err := decodeRLE(&c, n, func(i int, v uint64) error {
		if v >= nd {
			return fmt.Errorf("store: property dict index %d out of range", v)
		}
		propIdx[i] = int(v)
		return nil
	}); err != nil {
		return err
	}
	ndig, err := c.uvarint()
	if err != nil {
		return err
	}
	if ndig > uint64(c.remaining())/3 {
		// Each digest takes at least three bytes.
		return fmt.Errorf("store: digest count %d exceeds block remainder", ndig)
	}
	digests := make([]digestMark, ndig)
	prevPos := -1
	for i := range digests {
		pos, err := c.uvarint()
		if err != nil {
			return err
		}
		dat, err := c.varint()
		if err != nil {
			return err
		}
		through, err := c.uvarint()
		if err != nil {
			return err
		}
		if pos > uint64(n) || int(pos) < prevPos || through > maxDigestN {
			return fmt.Errorf("store: digest %d position %d out of order", i, pos)
		}
		prevPos = int(pos)
		digests[i] = digestMark{pos: int(pos), at: dat, through: int(through)}
	}
	if c.remaining() != 0 {
		return fmt.Errorf("store: %d trailing bytes in series block", c.remaining())
	}
	// Emit samples interleaved with digests at their recorded
	// positions, reconstructing the original per-series order.
	di := 0
	for i := 0; i < n; i++ {
		for di < len(digests) && digests[di].pos == i {
			if digest != nil {
				digest(digests[di].at, digests[di].through)
			}
			di++
		}
		if obs != nil {
			obs(ObsPoint{
				At: time.Unix(0, at[i]),
				Sample: core.Sample{
					ScaleOut:   scale[i],
					RuntimeSec: rt[i],
					Essential:  props[propIdx[i]].Essential,
					Optional:   props[propIdx[i]].Optional,
				},
			})
		}
	}
	for di < len(digests) {
		if digest != nil {
			digest(digests[di].at, digests[di].through)
		}
		di++
	}
	return nil
}

// decodeRLE reads (value, run) pairs until exactly n items are
// produced, calling set per item.
func decodeRLE(c *cursor, n int, set func(i int, v uint64) error) error {
	i := 0
	for i < n {
		v, err := c.uvarint()
		if err != nil {
			return err
		}
		run, err := c.uvarint()
		if err != nil {
			return err
		}
		if run == 0 || run > uint64(n-i) {
			return fmt.Errorf("store: RLE run %d overflows %d remaining items", run, n-i)
		}
		for j := uint64(0); j < run; j++ {
			if err := set(i, v); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}
