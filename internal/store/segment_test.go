package store

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/store/storetest"
)

// Per-column round trips of encodeSeriesBlock and decodeSeriesBlock on
// each encoding's worst inputs: every decoded value must carry the bits
// that went in.

// blockSeries builds a series from parallel columns, one sample per
// timestamp; props[i] is sample i's essential property value.
func blockSeries(at []int64, scale []int, runtime []float64, props []string) *seriesData {
	sd := &seriesData{}
	for i, t := range at {
		sd.add(walRecord{typ: recObservation, job: "sort", env: "c3o", at: t, sample: core.Sample{
			ScaleOut:   scale[i],
			RuntimeSec: runtime[i],
			Essential:  []encoding.Property{{Name: "dataset-size", Value: props[i]}},
			Optional:   []encoding.Property{{Name: "memory", Value: "8GB", Optional: true}},
		}})
	}
	return sd
}

// roundTrip encodes sd as one block and decodes it back, returning the
// block's bytes, the samples and the digests in stream order.
func roundTrip(t *testing.T, sd *seriesData) ([]byte, []ObsPoint, []digestMark) {
	t.Helper()
	block := encodeSeriesBlock(nil, sd)
	var pts []ObsPoint
	var digests []digestMark
	err := decodeSeriesBlock(block,
		func(p ObsPoint) { pts = append(pts, p) },
		func(at int64, through int) {
			digests = append(digests, digestMark{pos: len(pts), at: at, through: through})
		})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(pts) != len(sd.at) {
		t.Fatalf("decoded %d samples, want %d", len(pts), len(sd.at))
	}
	return block, pts, digests
}

// constSeries returns n samples of one scale-out, runtime and property
// set at the given timestamps.
func constSeries(at []int64) *seriesData {
	n := len(at)
	scale, runtime, props := make([]int, n), make([]float64, n), make([]string, n)
	for i := range at {
		scale[i], runtime[i], props[i] = 4, 100, "4GB"
	}
	return blockSeries(at, scale, runtime, props)
}

// TestSeriesBlockTimestamps round-trips delta-of-delta timestamps that
// go backwards and jump between the int64 extremes, where every delta
// and second difference wraps.
func TestSeriesBlockTimestamps(t *testing.T) {
	at := []int64{
		0, math.MaxInt64, math.MinInt64, -1, 1, math.MinInt64, math.MaxInt64,
		5, 3, 3, 3, -7, 1_700_000_000_000_000_000, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	_, pts, _ := roundTrip(t, constSeries(at))
	for i, p := range pts {
		if got := p.At.UnixNano(); got != at[i] {
			t.Fatalf("timestamp %d = %d, want %d", i, got, at[i])
		}
	}
	for _, n := range []int{1, 2} {
		_, pts, _ := roundTrip(t, constSeries(at[:n]))
		if got := pts[n-1].At.UnixNano(); got != at[n-1] {
			t.Fatalf("%d-sample series: last timestamp %d, want %d", n, got, at[n-1])
		}
	}
}

// TestSeriesBlockRLE round-trips both RLE columns, the scale-outs and
// the property-dictionary indexes, at run length 1 throughout (every
// sample differs from the one before) and as one long run.
func TestSeriesBlockRLE(t *testing.T) {
	const n = 1000
	at := make([]int64, n)
	runtime := make([]float64, n)
	alternating, one := make([]int, n), make([]int, n)
	altProps, oneProps := make([]string, n), make([]string, n)
	for i := range at {
		at[i], runtime[i] = int64(i), 100
		alternating[i] = []int{1, maxScale, 7}[i%3]
		one[i] = 12
		altProps[i] = []string{"4GB", "8GB", "16GB"}[i%3]
		oneProps[i] = "4GB"
	}
	for _, c := range []struct {
		name  string
		scale []int
		props []string
	}{
		{"run1", alternating, altProps},
		{"longrun", one, oneProps},
		{"run1-scale/longrun-props", alternating, oneProps},
		{"longrun-scale/run1-props", one, altProps},
	} {
		sd := blockSeries(at, c.scale, runtime, c.props)
		_, pts, _ := roundTrip(t, sd)
		for i, p := range pts {
			if p.Sample.ScaleOut != c.scale[i] {
				t.Fatalf("%s: scale-out %d = %d, want %d", c.name, i, p.Sample.ScaleOut, c.scale[i])
			}
			if got := p.Sample.Essential[0].Value; got != c.props[i] {
				t.Fatalf("%s: property %d = %q, want %q", c.name, i, got, c.props[i])
			}
			if p.Sample.Optional[0] != (encoding.Property{Name: "memory", Value: "8GB", Optional: true}) {
				t.Fatalf("%s: optional property %d = %+v", c.name, i, p.Sample.Optional[0])
			}
		}
	}
}

// TestSeriesBlockRuntimes round-trips XOR-coded runtimes through NaNs
// (with payloads and either sign), both zeros, both infinities,
// subnormals and sign flips, comparing bits, not values.
func TestSeriesBlockRuntimes(t *testing.T) {
	runtime := []float64{
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
		math.Copysign(0, -1), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.Inf(1),
		1.5, -1.5, 1.5, -1.5, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 100, 100,
	}
	n := len(runtime)
	at, scale, props := make([]int64, n), make([]int, n), make([]string, n)
	for i := range at {
		at[i], scale[i], props[i] = int64(i), 4, "4GB"
	}
	_, pts, _ := roundTrip(t, blockSeries(at, scale, runtime, props))
	for i, p := range pts {
		if got, want := math.Float64bits(p.Sample.RuntimeSec), math.Float64bits(runtime[i]); got != want {
			t.Fatalf("runtime %d bits %#016x, want %#016x", i, got, want)
		}
	}
}

// TestSeriesBlockBytes pins the block layout on a hand-worked 3-sample
// series with one digest.
func TestSeriesBlockBytes(t *testing.T) {
	sd := &seriesData{}
	for i, s := range []struct {
		at      int64
		scale   int
		runtime float64
	}{{100, 4, 1}, {110, 4, 1}, {125, 8, 2}} {
		if i == 2 {
			sd.digests = append(sd.digests, digestMark{pos: 2, at: 120, through: 2})
		}
		sd.add(walRecord{typ: recObservation, at: s.at, sample: core.Sample{ScaleOut: s.scale, RuntimeSec: s.runtime}})
	}
	want := []byte{
		0x03,       // count
		0xc8, 0x01, // t0 = 100, zig-zag 200
		0x14,       // delta 10, zig-zag 20
		0x0a,       // delta-of-delta 15-10 = 5, zig-zag 10
		0x04, 0x02, // scale-out 4, run 2
		0x08, 0x01, // scale-out 8, run 1
		// 1.0 = 0x3ff0<<48: seven empty 7-bit groups, then bits 52..61.
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xf8, 0x3f,
		0x00, // 1.0 XOR 1.0
		// 2.0 XOR 1.0 = 0x7ff0<<48: bits 52..62.
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xf8, 0x7f,
		0x01,       // one property set
		0x00, 0x00, // no essential, no optional properties
		0x00, 0x03, // dictionary index 0, run 3
		0x01,       // one digest
		0x02,       // after 2 samples
		0xf0, 0x01, // at 120, zig-zag 240
		0x02, // through 2
	}
	block, pts, digests := roundTrip(t, sd)
	if !bytes.Equal(block, want) {
		t.Fatalf("block\n% x\nwant\n% x", block, want)
	}
	if pts[2].At.UnixNano() != 125 || pts[2].Sample.ScaleOut != 8 || pts[2].Sample.RuntimeSec != 2 {
		t.Fatalf("third sample = %+v", pts[2])
	}
	if len(digests) != 1 || digests[0] != (digestMark{pos: 2, at: 120, through: 2}) {
		t.Fatalf("digests = %+v", digests)
	}
}

// TestLargeSeriesCompactsAndReplays compacts a series whose block is
// larger than a WAL frame may be: the segment's frame bound is its
// own. Replay after compaction must deliver the same per-key
// observations and digests, in the same order, as the WAL did.
func TestLargeSeriesCompactsAndReplays(t *testing.T) {
	base := t.TempDir()
	opts := Options{Fsync: FsyncNever, SegmentBytes: 256 << 10}
	s, err := Open(base, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// A distinct 120-byte property value per sample defeats the
	// dictionary, so the ~10k samples of sort in sealed WAL segments
	// take over 1 MiB in one block.
	const n = 12000
	pad := strings.Repeat("x", 100)
	at := time.Unix(1_700_000_000, 0)
	for i := 0; i < n; i++ {
		job := "sort"
		if i%50 == 0 {
			job = "grep"
		}
		smp := obs(i)
		smp.Essential = []encoding.Property{{Name: "dataset-size", Value: fmt.Sprintf("%s%019d", pad, i)}}
		if err := s.AppendObservation(job, "c3o", smp, at.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i%1000 == 999 {
			if err := s.AppendDigest(job, "c3o", i, at); err != nil {
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
	if _, err := s.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(base, "seg", "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("%d compacted segments, want 1", len(segs))
	}
	largest := 0
	res, err := scanFile(segs[0], segMagic, maxSeriesFrameBytes, func(p []byte) error {
		largest = max(largest, len(p))
		return nil
	})
	if err != nil || !res.clean() {
		t.Fatalf("scanning the segment: %v, %v", err, res.tornErr)
	}
	if largest <= maxRecordBytes {
		t.Fatalf("largest series frame is %d bytes, want over maxRecordBytes (%d)", largest, maxRecordBytes)
	}

	replayDir := func(dir string) (obs map[string][]ObsPoint, digests map[string][]int) {
		st, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("Open %s: %v", dir, err)
		}
		defer st.Close()
		obs, digests = map[string][]ObsPoint{}, map[string][]int{}
		err = st.Replay(ReplayHandler{
			Observation: func(job, env string, smp core.Sample, at time.Time) {
				obs[job+"@"+env] = append(obs[job+"@"+env], ObsPoint{At: at, Sample: smp})
			},
			Digest: func(job, env string, through int, at time.Time) {
				// A digest's place in its key's stream is the number of
				// observations before it.
				digests[job+"@"+env] = append(digests[job+"@"+env], len(obs[job+"@"+env]), through)
			},
		})
		if err != nil {
			t.Fatalf("Replay %s: %v", dir, err)
		}
		return obs, digests
	}
	wantObs, wantDigests := replayDir(walImg)
	gotObs, gotDigests := replayDir(base)
	if len(wantObs["sort@c3o"])+len(wantObs["grep@c3o"]) != n {
		t.Fatalf("the WAL replayed %d + %d observations, want %d", len(wantObs["sort@c3o"]), len(wantObs["grep@c3o"]), n)
	}
	for _, k := range []string{"sort@c3o", "grep@c3o"} {
		want, got := wantObs[k], gotObs[k]
		if len(got) != len(want) {
			t.Fatalf("%s: %d observations after compaction, want %d", k, len(got), len(want))
		}
		for i := range want {
			if !got[i].At.Equal(want[i].At) || !sampleEq(got[i].Sample, want[i].Sample) {
				t.Fatalf("%s: observation %d = %+v, want %+v", k, i, got[i], want[i])
			}
		}
		if !slices.Equal(gotDigests[k], wantDigests[k]) {
			t.Fatalf("%s: digests (position, through) = %v, want %v", k, gotDigests[k], wantDigests[k])
		}
	}
}
