package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Compacted segment layout. A segment is the immutable, indexed form
// of a run of sealed WAL segments: observations grouped per (job, env)
// series with columnar compression, digests kept as positions inside
// their series stream, and a footer index that addresses each series
// block.
//
//	header   8 bytes  "BSEG" version
//	blocks   one per series (see encodeSeriesBlock), each CRC32C-tailed
//	index    series directory: key -> block offset/length/count
//	footer   36 bytes fixed:
//	         indexOff u64 | indexLen u32 | indexCRC u32 |
//	         walFirst u64 | walLast u64 | magic "BSG1"
//
// walFirst..walLast is the range of WAL segment sequence numbers the
// segment replaces; Open uses it to delete WAL files a crash left
// behind after compaction finished, so replay never double-counts. No
// CRC covers it: a segment is trusted only when walLast is the
// sequence in its file name and walFirst <= walLast.
var (
	segMagic       = []byte{'B', 'S', 'E', 'G', 1, 0, 0, 0}
	segFooterMagic = []byte{'B', 'S', 'G', '1'}
)

const (
	segHeaderLen = 8
	segFooterLen = 36
	// maxSeriesPerSegment and maxSamplesPerSeries bound decode-time
	// allocations against corrupt or fuzzed counts.
	maxSeriesPerSegment = 1 << 20
	maxSamplesPerSeries = 1 << 26
)

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
// after pos samples of the series had been ingested.
type digestMark struct {
	pos   int
	at    int64
	fresh int
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
//	digests          uvarint n, then (uvarint pos, varint at, uvarint fresh)
//	crc              u32 LE CRC32C of everything above
func encodeSeriesBlock(dst []byte, sd *seriesData) []byte {
	start := len(dst)
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
		dst = binary.AppendUvarint(dst, uint64(d.fresh))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// seriesEntry is one index row of a segment.
type seriesEntry struct {
	job, env string
	off      int64
	blen     int64
	count    int64
}

// Segment is one open compacted segment: the raw bytes plus the parsed
// footer index.
type Segment struct {
	b                 []byte
	index             []seriesEntry
	walFirst, walLast uint64
}

// writeSegment renders and atomically publishes a compacted segment
// covering WAL sequences walFirst..walLast: write-temp, fsync, rename,
// fsync dir. A crash at any point leaves either no segment (the WAL
// still feeds replay) or the complete segment (the covered WAL files
// are deleted on next open).
func writeSegment(dir string, order []seriesKey, series map[seriesKey]*seriesData, walFirst, walLast uint64) (string, error) {
	buf := buildSegmentImage(order, series, walFirst, walLast)
	path := filepath.Join(dir, segName(walLast))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return "", fmt.Errorf("store: writing segment temp file: %w", err)
	}
	f, err := os.Open(tmp)
	if err != nil {
		return "", fmt.Errorf("store: reopening segment temp file: %w", err)
	}
	syncErr := f.Sync()
	f.Close()
	if syncErr != nil {
		return "", fmt.Errorf("store: syncing segment: %w", syncErr)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("store: publishing segment: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return path, nil
}

// buildSegmentImage renders the complete segment byte image (header,
// series blocks, index, footer) without touching the filesystem.
func buildSegmentImage(order []seriesKey, series map[seriesKey]*seriesData, walFirst, walLast uint64) []byte {
	// Index rows are sorted by key so Series can binary-search.
	sort.Slice(order, func(i, j int) bool {
		if order[i].job != order[j].job {
			return order[i].job < order[j].job
		}
		return order[i].env < order[j].env
	})
	buf := append([]byte(nil), segMagic...)
	index := make([]seriesEntry, 0, len(order))
	for _, k := range order {
		sd := series[k]
		off := int64(len(buf))
		buf = encodeSeriesBlock(buf, sd)
		index = append(index, seriesEntry{
			job: k.job, env: k.env,
			off: off, blen: int64(len(buf)) - off, count: int64(len(sd.at)),
		})
	}
	indexOff := int64(len(buf))
	buf = binary.AppendUvarint(buf, uint64(len(index)))
	for _, e := range index {
		buf = appendString(buf, e.job)
		buf = appendString(buf, e.env)
		buf = binary.AppendUvarint(buf, uint64(e.off))
		buf = binary.AppendUvarint(buf, uint64(e.blen))
		buf = binary.AppendUvarint(buf, uint64(e.count))
	}
	indexLen := int64(len(buf)) - indexOff
	buf = binary.LittleEndian.AppendUint64(buf, uint64(indexOff))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(indexLen))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[indexOff:indexOff+indexLen], castagnoli))
	buf = binary.LittleEndian.AppendUint64(buf, walFirst)
	buf = binary.LittleEndian.AppendUint64(buf, walLast)
	return append(buf, segFooterMagic...)
}

// openSegment reads and validates one compacted segment file, named
// for walLast. No CRC covers the footer's WAL range, and Open deletes
// the WAL segments up to walLast on its word, so the range must agree
// with the name before the segment is trusted.
func openSegment(path string, walLast uint64) (*Segment, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading segment: %w", err)
	}
	g, err := parseSegment(b)
	if err == nil && (g.walLast != walLast || g.walFirst > g.walLast) {
		err = fmt.Errorf("footer covers WAL %d..%d, name says ..%d", g.walFirst, g.walLast, walLast)
	}
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", filepath.Base(path), err)
	}
	return g, nil
}

// parseSegment validates the header, footer, and index of a segment
// image. Series blocks are validated lazily (their CRCs are checked on
// first decode). It must reject any malformed input with an error —
// never panic or read out of bounds — which FuzzSegmentFooter pins.
func parseSegment(b []byte) (*Segment, error) {
	if len(b) < segHeaderLen+segFooterLen {
		return nil, fmt.Errorf("shorter than header+footer")
	}
	if string(b[:segHeaderLen]) != string(segMagic) {
		return nil, fmt.Errorf("bad header magic")
	}
	foot := b[len(b)-segFooterLen:]
	if string(foot[32:]) != string(segFooterMagic) {
		return nil, fmt.Errorf("bad footer magic")
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	indexLen := int64(binary.LittleEndian.Uint32(foot[8:]))
	indexCRC := binary.LittleEndian.Uint32(foot[12:])
	g := &Segment{
		b:        b,
		walFirst: binary.LittleEndian.Uint64(foot[16:]),
		walLast:  binary.LittleEndian.Uint64(foot[24:]),
	}
	bodyEnd := int64(len(b) - segFooterLen)
	if indexOff < segHeaderLen || indexLen < 0 || indexOff+indexLen != bodyEnd {
		return nil, fmt.Errorf("index [%d,%d) out of bounds", indexOff, indexOff+indexLen)
	}
	idx := b[indexOff : indexOff+indexLen]
	if crc32.Checksum(idx, castagnoli) != indexCRC {
		return nil, fmt.Errorf("index CRC mismatch")
	}
	c := cursor{b: idx}
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSeriesPerSegment {
		return nil, fmt.Errorf("%d series exceed limit", n)
	}
	g.index = make([]seriesEntry, 0, n)
	prevEnd := int64(segHeaderLen)
	for i := uint64(0); i < n; i++ {
		var e seriesEntry
		if e.job, err = c.str(); err != nil {
			return nil, err
		}
		if e.env, err = c.str(); err != nil {
			return nil, err
		}
		off, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		blen, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		count, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		e.off, e.blen, e.count = int64(off), int64(blen), int64(count)
		// Blocks tile the region between header and index exactly.
		if e.off != prevEnd || e.blen < 5 || e.off+e.blen > indexOff {
			return nil, fmt.Errorf("series %d block [%d,%d) out of bounds", i, e.off, e.off+e.blen)
		}
		if e.count > maxSamplesPerSeries {
			return nil, fmt.Errorf("series %d count %d exceeds limit", i, e.count)
		}
		prevEnd = e.off + e.blen
		g.index = append(g.index, e)
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing index bytes", c.remaining())
	}
	if prevEnd != indexOff {
		return nil, fmt.Errorf("blocks end at %d, index starts at %d", prevEnd, indexOff)
	}
	return g, nil
}

// ObsPoint is one decoded observation of a series.
type ObsPoint struct {
	At     time.Time
	Sample core.Sample
}

// decodeSeriesBlock walks one series block, invoking obs per sample
// (in ingestion order) and digest at each digest marker. Either
// callback may be nil.
func (g *Segment) decodeSeriesBlock(e seriesEntry, obs func(ObsPoint), digest func(at int64, fresh int)) error {
	block := g.b[e.off : e.off+e.blen]
	body, tail := block[:len(block)-4], block[len(block)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("store: series %s@%s block CRC mismatch", e.job, e.env)
	}
	c := cursor{b: body}
	nu, err := c.uvarint()
	if err != nil {
		return err
	}
	if nu != uint64(e.count) {
		return fmt.Errorf("store: series %s@%s block count %d != index count %d", e.job, e.env, nu, e.count)
	}
	if nu > uint64(len(body)) {
		// Every sample needs at least one timestamp byte; a larger
		// count is a corrupt allocation bomb.
		return fmt.Errorf("store: series count %d exceeds block size %d", nu, len(body))
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
	if nd > uint64(c.remaining())+1 {
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
	if ndig > uint64(c.remaining())+1 {
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
		fresh, err := c.uvarint()
		if err != nil {
			return err
		}
		if pos > uint64(n) || int(pos) < prevPos || fresh > maxDigestN {
			return fmt.Errorf("store: digest %d position %d out of order", i, pos)
		}
		prevPos = int(pos)
		digests[i] = digestMark{pos: int(pos), at: dat, fresh: int(fresh)}
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
				digest(digests[di].at, digests[di].fresh)
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
			digest(digests[di].at, digests[di].fresh)
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
