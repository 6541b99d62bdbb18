package lifecycle

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// The store satisfies the controller's durability interfaces
// structurally; pin that here so a signature drift fails to compile.
var (
	_ ObservationLog = (*store.Store)(nil)
	_ Checkpointer   = (*store.Store)(nil)
)

// durableStack builds a store-backed service + controller over dir, the
// exact wiring cmd/bellamy serve uses.
func durableStack(t *testing.T, dir string, tl *testLoader) (*store.Store, *serve.Service, *Controller) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	svc := serve.NewService(tl.load, serve.Options{})
	svc.Registry().SetVersionedLoader(serve.CheckpointLoader(tl.load, st))
	svc.AttachStore(st)
	ctl := New(svc.Registry(), Config{
		MinSamples: 8,
		Interval:   time.Hour, // RunOnce drives the test
		Workers:    1,
		Finetune:   fastFinetune(),
		Log:        st,
		Checkpoint: st,
	})
	svc.AttachObserver(ctl)
	return st, svc, ctl
}

// replayInto streams the store history into the controller, the boot
// path of a restarted node.
func replayInto(t *testing.T, st *store.Store, ctl *Controller) {
	t.Helper()
	err := st.Replay(store.ReplayHandler{
		Observation: func(job, env string, s core.Sample, at time.Time) {
			ctl.Restore(serve.ModelKey{Job: job, Env: env}, s, at)
		},
		Digest: func(job, env string, through int, at time.Time) {
			ctl.RestoreDigest(serve.ModelKey{Job: job, Env: env}, through)
		},
		Dropped: func(job, env string, n int) {
			ctl.RestoreDropped(serve.ModelKey{Job: job, Env: env}, n)
		},
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
}

// TestReplayKeepsObservationsLoggedDuringFinetune: a fine-tune logs its
// digest record after its swap and checkpoint, so observations that
// arrive while it runs sit in the log before a record that does not
// count them. Replay takes the record's count off the fresh samples
// instead of all of them: 8 observations, 3 more, then a digest of 8
// leave the 3 pending after a restart, as they are on the live node,
// with the staleness clock running from the oldest of them.
func TestReplayKeepsObservationsLoggedDuringFinetune(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncNever})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	qs, truths := observedSamples()
	base := time.Unix(1_700_000_000, 0)
	arrival := func(i int) time.Time { return base.Add(time.Duration(i) * time.Second) }
	for i := 0; i < 8+3; i++ {
		q := qs[i%len(qs)]
		s := core.Sample{ScaleOut: q.ScaleOut, Essential: q.Essential, Optional: q.Optional, RuntimeSec: truths[i%len(qs)]}
		if err := st.AppendObservation(key.Job, key.Env, s, arrival(i)); err != nil {
			t.Fatalf("AppendObservation: %v", err)
		}
	}
	if err := st.AppendDigest(key.Job, key.Env, 8, arrival(11)); err != nil {
		t.Fatalf("AppendDigest: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, _, ctl := durableStack(t, dir, &testLoader{t: t})
	defer st2.Close()
	replayInto(t, st2, ctl)
	if ls := ctl.LifecycleStats(); ls.PendingSamples != 3 {
		t.Fatalf("pending after recovery = %d, want 3 (those logged after the digested 8)", ls.PendingSamples)
	}
	if _, got := freshState(ctl.buffers[key]); !got.Equal(arrival(8)) {
		t.Fatalf("oldest fresh arrival after recovery = %v, want the 9th observation's %v", got, arrival(8))
	}
}

// freshState reads b's pending count and staleness anchor.
func freshState(b *buffer) (pending int, oldest time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.freshLocked()
}

// ringEntry is one ring slot: the sample's runtime and its arrival.
type ringEntry struct {
	runtime float64
	at      time.Time
}

// ringContents lists b's samples oldest first.
func ringContents(b *buffer) []ringEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]ringEntry, b.n)
	for i := range out {
		j := (b.start + i) % len(b.samples)
		out[i] = ringEntry{b.samples[j].RuntimeSec, b.arrived[j]}
	}
	return out
}

// replayDigestScenario logs 11 observations of one key, one a second,
// a digest through the first 8, then later more observations, into a
// store whose every append seals the segment before it. With compact
// set, it compacts the sealed segments, keeping bufferCap observations,
// after the first 11 observations, after the digest and after the later
// observations, so the replay reads a snapshot: a dropped count, the
// kept observations, then the digest. It replays the log into a
// controller of ring capacity bufferCap and returns the key's pending
// count and staleness anchor, and arrival(i), the i-th observation's
// arrival.
func replayDigestScenario(t *testing.T, bufferCap, later int, compact bool) (pending int, oldest time.Time, arrival func(int) time.Time) {
	t.Helper()
	dir := t.TempDir()
	opts := store.Options{Fsync: store.FsyncNever, SegmentBytes: 1}
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	qs, truths := observedSamples()
	base := time.Unix(1_700_000_000, 0)
	arrival = func(i int) time.Time { return base.Add(time.Duration(i) * time.Second) }
	observe := func(i int) {
		q := qs[i%len(qs)]
		s := core.Sample{ScaleOut: q.ScaleOut, Essential: q.Essential, Optional: q.Optional, RuntimeSec: truths[i%len(qs)]}
		if err := st.AppendObservation(key.Job, key.Env, s, arrival(i)); err != nil {
			t.Fatalf("AppendObservation: %v", err)
		}
	}
	compactNow := func() {
		if !compact {
			return
		}
		if n, err := st.CompactNow(bufferCap); err != nil || n == 0 {
			t.Fatalf("CompactNow = (%d, %v), want records compacted", n, err)
		}
	}
	for i := 0; i < 11; i++ {
		observe(i)
	}
	compactNow()
	if err := st.AppendDigest(key.Job, key.Env, 8, arrival(11)); err != nil {
		t.Fatalf("AppendDigest: %v", err)
	}
	compactNow()
	for i := 11; i < 11+later; i++ {
		observe(i)
	}
	compactNow()
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, err := store.Open(dir, opts)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st2.Close()
	ctl := New(serve.NewRegistry((&testLoader{t: t}).load, 4), Config{BufferCap: bufferCap})
	replayInto(t, st2, ctl)
	pending, oldest = freshState(ctl.buffers[key])
	return pending, oldest, arrival
}

// TestReplayKeepsObservationsLoggedDuringFinetuneWrapped is
// TestReplayKeepsObservationsLoggedDuringFinetune on a ring of 8 that
// the 11 observations wrap: the digest names the 8 observations its
// take consumed, not a count of the ring's fresh samples, so replay
// still leaves the 3 later ones pending, anchored at the 9th arrival.
func TestReplayKeepsObservationsLoggedDuringFinetuneWrapped(t *testing.T) {
	pending, oldest, arrival := replayDigestScenario(t, 8, 0, false)
	if pending != 3 {
		t.Fatalf("pending after recovery = %d, want 3 (those logged after the digested 8)", pending)
	}
	if !oldest.Equal(arrival(8)) {
		t.Fatalf("oldest fresh arrival after recovery = %v, want the 9th observation's %v", oldest, arrival(8))
	}
}

// TestReplayDigestPastSkippedHistory: a digest naming more observations
// than replay restored (a damaged snapshot was skipped) marks
// the ring digested, and the observations after it count fresh at once.
func TestReplayDigestPastSkippedHistory(t *testing.T) {
	b := newBuffer(8)
	at := time.Unix(1_700_000_000, 0)
	for i := 0; i < 3; i++ {
		b.add(core.Sample{ScaleOut: 4, RuntimeSec: float64(i + 1)}, at.Add(time.Duration(i)*time.Second))
	}
	b.markDigested(100)
	b.add(core.Sample{ScaleOut: 4, RuntimeSec: 4}, at.Add(3*time.Second))
	if n, oldest := freshState(b); n != 1 || !oldest.Equal(at.Add(3*time.Second)) {
		t.Fatalf("pending %d anchored at %v, want the one observation after the digest", n, oldest)
	}
}

// TestCompactedDigestPastSkippedHistory: a digest naming more
// observations than the log holds before it (history lost with a
// damaged snapshot) marks only those digested, so the observation after
// it stays fresh. The snapshot keeps the digest capped, so the
// compacted log replays to the ring the whole log does.
func TestCompactedDigestPastSkippedHistory(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Fsync: store.FsyncNever, SegmentBytes: 1}
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	q := testQuery(4, 10000)
	at := time.Unix(1_700_000_000, 0)
	observe := func(i int) {
		s := core.Sample{ScaleOut: q.ScaleOut, Essential: q.Essential, Optional: q.Optional, RuntimeSec: float64(i + 1)}
		if err := st.AppendObservation(key.Job, key.Env, s, at.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatalf("AppendObservation: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		observe(i)
	}
	if err := st.AppendDigest(key.Job, key.Env, 100, at); err != nil {
		t.Fatalf("AppendDigest: %v", err)
	}
	observe(3)
	observe(4)
	// replayed reopens the store, which rolls its full active segment
	// so that a compaction after it takes every record, and replays it.
	replayed := func() *buffer {
		t.Helper()
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if st, err = store.Open(dir, opts); err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		ctl := New(serve.NewRegistry((&testLoader{t: t}).load, 4), Config{BufferCap: 2})
		replayInto(t, st, ctl)
		return ctl.buffers[key]
	}
	whole := stateOf(replayed())
	if whole.pending != 2 || whole.digested != 3 {
		t.Fatalf("whole log: %d pending, digested through %d, want 2 and 3", whole.pending, whole.digested)
	}
	if n, err := st.CompactNow(2); err != nil || n == 0 {
		t.Fatalf("CompactNow = (%d, %v), want records compacted", n, err)
	}
	compacted := stateOf(replayed())
	defer st.Close()
	if !reflect.DeepEqual(compacted, whole) {
		t.Fatalf("compacted log replays to %+v, want %+v as the whole log", compacted, whole)
	}
}

// TestReplayDigestSurvivesCompaction: compaction keeps a key's ring
// and its ordinals, so a log compacted between the observations and the
// digest, and between the digest and later observations, replays to
// the same pending count and staleness anchor as the uncompacted log.
func TestReplayDigestSurvivesCompaction(t *testing.T) {
	for _, bufferCap := range []int{8, DefaultBufferCap} {
		wantPending, wantOldest, arrival := replayDigestScenario(t, bufferCap, 2, false)
		pending, oldest, _ := replayDigestScenario(t, bufferCap, 2, true)
		if wantPending != 5 || !wantOldest.Equal(arrival(8)) {
			t.Fatalf("cap %d uncompacted: pending %d anchored at %v, want 5 at the 9th arrival %v",
				bufferCap, wantPending, wantOldest, arrival(8))
		}
		if pending != wantPending || !oldest.Equal(wantOldest) {
			t.Fatalf("cap %d compacted: pending %d anchored at %v, want %d at %v as uncompacted",
				bufferCap, pending, oldest, wantPending, wantOldest)
		}
	}
}

// TestReplayRebuildsLiveRing: over seeded random schedules of two keys
// (see runLoggedSchedule) at ring capacities 1, 8 and 256, replaying the
// log, compacted at seeded steps, rebuilds the live rings: the same
// samples in order, the same ordinals, pending count and staleness
// anchor, at a mid-schedule reopen and at the end.
func TestReplayRebuildsLiveRing(t *testing.T) {
	for _, bufferCap := range []int{1, 8, 256} {
		t.Run(fmt.Sprintf("cap%d", bufferCap), func(t *testing.T) {
			var counts scheduleCounts
			for seed := uint64(1); seed <= 20; seed++ {
				runLoggedSchedule(t, bufferCap, seed, &counts)
			}
			if counts.inFlight == 0 || counts.twice == 0 {
				t.Fatalf("schedules compacted %d times with a take in flight and %d times twice in a row, want both",
					counts.inFlight, counts.twice)
			}
		})
	}
}

// scheduleKeys are the keys a logged schedule interleaves.
var scheduleKeys = [2]serve.ModelKey{{Job: "sort", Env: "c3o"}, {Job: "grep", Env: "c3o"}}

// liveRing is one key's ring in a logged schedule and its take in
// flight.
type liveRing struct {
	buf      *buffer
	job      tuneJob
	inFlight bool
}

// scheduleCounts tallies the compactions the schedules must include:
// those between a take and its digest, and those run twice in a row.
type scheduleCounts struct{ inFlight, twice int }

// ringState is everything of a ring that replay restores.
type ringState struct {
	contents       []ringEntry
	seen, digested int
	pending        int
	oldest         time.Time
}

func stateOf(b *buffer) ringState {
	st := ringState{contents: ringContents(b)}
	b.mu.Lock()
	st.seen, st.digested = b.seen, b.digested
	b.mu.Unlock()
	st.pending, st.oldest = freshState(b)
	return st
}

// runLoggedSchedule drives the live rings of two keys, capacity
// bufferCap, through 600 seeded random steps, one a second:
// observations, takes (by trigger or for drain), installed fine-tunes
// (their digest logged through the take's ordinal) and refused ones
// (requeued), with observations landing between a take and its digest.
// It logs to a store as the controller does, on WAL segments that roll
// every few records, and compacts at seeded steps: sometimes twice in a
// row, sometimes while a take is in flight. Halfway it settles the
// takes in flight as installed, closes and reopens the store and
// replays it; at the end it settles them again and replays once more.
// Each replay must rebuild both live rings.
func runLoggedSchedule(t *testing.T, bufferCap int, seed uint64, counts *scheduleCounts) {
	t.Helper()
	q := testQuery(4, 10000)
	rng := rand.New(rand.NewPCG(seed, uint64(bufferCap)))
	dir := t.TempDir()
	opts := store.Options{Fsync: store.FsyncNever, SegmentBytes: 256}
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	var live [2]liveRing
	for i := range live {
		live[i].buf = newBuffer(bufferCap)
	}
	settle := func(k int, at time.Time, installed bool) {
		r := &live[k]
		if installed {
			if err := st.AppendDigest(scheduleKeys[k].Job, scheduleKeys[k].Env, r.job.through, at); err != nil {
				t.Fatalf("AppendDigest: %v", err)
			}
		} else {
			r.buf.requeue(r.job.prev, at, time.Second)
		}
		r.buf.tuneDone()
		r.inFlight = false
	}
	compact := func() {
		if _, err := st.CompactNow(bufferCap); err != nil {
			t.Fatalf("CompactNow: %v", err)
		}
	}
	// replayAndCheck settles the takes in flight, closes the store,
	// replays a reopened one into a fresh controller and compares its
	// rings with the live ones. It returns the reopened store.
	replayAndCheck := func(at time.Time, when string) *store.Store {
		for k := range live {
			if live[k].inFlight {
				settle(k, at, true)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		st2, err := store.Open(dir, opts)
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		ctl := New(serve.NewRegistry((&testLoader{t: t}).load, 4), Config{BufferCap: bufferCap})
		replayInto(t, st2, ctl)
		for k, key := range scheduleKeys {
			replayed := ctl.buffers[key]
			if replayed == nil {
				replayed = newBuffer(bufferCap)
			}
			if got, want := stateOf(replayed), stateOf(live[k].buf); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s, %s: replayed ring %+v, live ring %+v", seed, when, key, got, want)
			}
		}
		return st2
	}
	at := time.Unix(1_700_000_000, 0)
	for step := 0; step < 600; step++ {
		at = at.Add(time.Second)
		if step == 300 {
			st = replayAndCheck(at, "reopened mid-schedule")
		}
		k := rng.IntN(len(live))
		r := &live[k]
		switch x := rng.IntN(11); {
		case x < 6:
			s := core.Sample{ScaleOut: q.ScaleOut, Essential: q.Essential, Optional: q.Optional, RuntimeSec: float64(step + 1)}
			if err := st.AppendObservation(scheduleKeys[k].Job, scheduleKeys[k].Env, s, at); err != nil {
				t.Fatalf("AppendObservation: %v", err)
			}
			r.buf.add(s, at)
		case x == 6 && !r.inFlight:
			r.job, r.inFlight = r.buf.takeForDrain()
		case x == 7 && !r.inFlight:
			r.job, r.inFlight = r.buf.takeIfTriggered(at, 1+rng.IntN(bufferCap), 30*time.Second)
		case x == 8 && r.inFlight:
			settle(k, at, true)
		case x == 9 && r.inFlight:
			settle(k, at, false)
		case x == 10:
			compact()
			if live[0].inFlight || live[1].inFlight {
				counts.inFlight++
			}
			if rng.IntN(2) == 0 {
				compact()
				counts.twice++
			}
		}
	}
	if err := replayAndCheck(at, "at the end").Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestLifecycleDurableRestart extends TestObserveFinetuneSwapImproves
// across a hard restart: observations flow in and trigger a fine-tune +
// swap + checkpoint, more observations arrive undigested, then the
// whole stack is torn down and rebuilt from the data directory. The
// recovered node must serve the fine-tuned version at the same version
// number, hold exactly the undigested samples as pending, and not
// re-run the already-checkpointed fine-tune.
func TestLifecycleDurableRestart(t *testing.T) {
	dir := t.TempDir()
	tl := &testLoader{t: t}
	st, svc, ctl := durableStack(t, dir, tl)
	key := serve.ModelKey{Job: "sort", Env: "c3o"}
	qs, truths := observedSamples()

	maeBefore := serviceMAE(t, svc, key, qs, truths)
	for i, q := range qs {
		if err := svc.Observe(context.Background(), key, q, truths[i]); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if n := ctl.RunOnce(); n != 1 {
		t.Fatalf("RunOnce swapped %d models, want 1", n)
	}
	if v, ok := svc.Registry().Version(key); !ok || v != 2 {
		t.Fatalf("version after swap = (%d, %v), want (2, true)", v, ok)
	}
	maeTuned := serviceMAE(t, svc, key, qs, truths)
	if maeTuned >= maeBefore*0.5 {
		t.Fatalf("MAE %.2fs -> %.2fs: fine-tune did not improve enough to measure recovery", maeBefore, maeTuned)
	}
	// Observations after the digest: fresh at crash time, and they must
	// still be pending after recovery.
	const undigested = 4
	for i := 0; i < undigested; i++ {
		if err := svc.Observe(context.Background(), key, qs[i], truths[i]); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	ingested := int64(len(qs) + undigested)
	ds := st.StoreStats()
	if ds.WALAppends != ingested+1 { // +1 digest record
		t.Fatalf("WAL holds %d records, want %d observations + 1 digest", ds.WALAppends, ingested)
	}
	if ds.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", ds.Checkpoints)
	}
	// Hard restart: close the store (kill -9 equivalence for the WAL
	// content is pinned by the store's own crash tests) and drop every
	// in-memory structure.
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, svc2, ctl2 := durableStack(t, dir, tl)
	defer st2.Close()
	replayInto(t, st2, ctl2)

	rs := st2.StoreStats()
	if rs.ReplayedObservations != ingested {
		t.Fatalf("replayed %d observations, want %d (every ingested sample)", rs.ReplayedObservations, ingested)
	}
	if rs.ReplayedDigests != 1 {
		t.Fatalf("replayed %d digests, want 1", rs.ReplayedDigests)
	}
	ls := ctl2.LifecycleStats()
	if ls.Restored != ingested+1 {
		t.Fatalf("restored = %d, want %d records", ls.Restored, ingested+1)
	}
	if ls.PendingSamples != undigested {
		t.Fatalf("pending after recovery = %d, want %d (only post-digest samples fresh)", ls.PendingSamples, undigested)
	}
	// The recovered registry serves the fine-tuned version — same
	// version number, same weights (identical predictions), without
	// touching the base-model loader.
	maeRecovered := serviceMAE(t, svc2, key, qs, truths)
	if v, ok := svc2.Registry().Version(key); !ok || v != 2 {
		t.Fatalf("recovered version = (%d, %v), want (2, true)", v, ok)
	}
	if math.Abs(maeRecovered-maeTuned) > 1e-9 {
		t.Fatalf("recovered MAE %.6fs != pre-restart MAE %.6fs: checkpoint is not the swapped model", maeRecovered, maeTuned)
	}
	if n := tl.loads.Load(); n != 1 {
		t.Fatalf("base loader ran %d times, want 1 (recovery must come from the checkpoint)", n)
	}
	if rs2 := st2.StoreStats(); rs2.CheckpointLoads != 1 {
		t.Fatalf("checkpoint loads = %d, want 1", rs2.CheckpointLoads)
	}
	// The checkpointed fine-tune must not re-run: the digest marker left
	// only the undigested tail fresh, below the trigger.
	if n := ctl2.RunOnce(); n != 0 {
		t.Fatalf("recovery re-ran %d checkpointed fine-tunes, want 0", n)
	}
	// Life goes on: enough new observations trigger the next fine-tune,
	// and the version counter continues from the recovered value.
	for i := undigested; i < 8; i++ {
		if err := svc2.Observe(context.Background(), key, qs[i], truths[i]); err != nil {
			t.Fatalf("Observe after recovery: %v", err)
		}
	}
	if n := ctl2.RunOnce(); n != 1 {
		t.Fatalf("post-recovery RunOnce swapped %d models, want 1", n)
	}
	if v, ok := svc2.Registry().Version(key); !ok || v != 3 {
		t.Fatalf("post-recovery version = (%d, %v), want (3, true)", v, ok)
	}
}

// TestDurableObserveRejectedWhenLogFails: an observation whose WAL
// append fails must be rejected (the caller's 202 means durable), not
// admitted into the volatile ring.
func TestDurableObserveRejectedWhenLogFails(t *testing.T) {
	tl := &testLoader{t: t}
	ctl := New(serve.NewRegistry(tl.load, 4), Config{
		Log: failingLog{},
	})
	key := serve.ModelKey{Job: "sort"}
	if err := ctl.Observe(context.Background(), key, testQuery(4, 10000), 10); err == nil {
		t.Fatal("observation accepted despite a failing durable log")
	}
	st := ctl.LifecycleStats()
	if st.Observations != 0 || st.Rejected != 1 || st.LogErrors != 1 || st.PendingSamples != 0 {
		t.Fatalf("stats = %+v, want the observation rejected and counted as a log error", st)
	}
}

type failingLog struct{}

func (failingLog) AppendObservation(job, env string, s core.Sample, at time.Time) error {
	return errTransient
}
func (failingLog) AppendDigest(job, env string, through int, at time.Time) error {
	return errTransient
}

// TestBackoffRaceUnderConcurrentObserve is the -race regression for the
// load-failure backoff timer: scans that requeue (arming the backoff)
// race against concurrent Observe calls growing the same ring and
// against stats reads. The invariants: no data race, pending never
// exceeds the ring bound, and the backoff keeps the failing loader from
// being ground on every scan.
func TestBackoffRaceUnderConcurrentObserve(t *testing.T) {
	var loads atomic.Int64
	loader := func(key serve.ModelKey) (*core.Model, error) {
		loads.Add(1)
		return nil, errTransient
	}
	const bufferCap = 32
	ctl := New(serve.NewRegistry(loader, 4), Config{
		MinSamples: 1,
		BufferCap:  bufferCap,
		Interval:   time.Nanosecond, // backoff base: retries stay hot under the hammer
		Finetune:   fastFinetune(),
	})
	key := serve.ModelKey{Job: "ghost"}
	q := testQuery(4, 10000)
	// Seed the ring before the hammer so the very first scan already has
	// a triggered buffer to fail on.
	if err := ctl.Observe(context.Background(), key, q, 10); err != nil {
		t.Fatalf("Observe: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Ring growth: concurrent observers hammer the same key while scans
	// snapshot, requeue, and arm the backoff timer on its buffer.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := ctl.Observe(context.Background(), key, q, 10); err != nil {
					t.Errorf("Observe: %v", err)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	// Stats reader: LifecycleStats walks the buffers while they churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := ctl.LifecycleStats()
			if st.PendingSamples > bufferCap {
				t.Errorf("pending %d exceeds ring bound %d", st.PendingSamples, bufferCap)
				return
			}
		}
	}()
	const scans = 60
	for i := 0; i < scans; i++ {
		ctl.RunOnce()
		runtime.Gosched() // let the observers interleave with the scans
	}
	close(stop)
	wg.Wait()

	st := ctl.LifecycleStats()
	if st.FinetuneErrors == 0 {
		t.Fatal("hammer never hit the failing loader")
	}
	if st.Finetunes != 0 {
		t.Fatalf("finetunes = %d through a loader that always fails", st.Finetunes)
	}
	if st.PendingSamples > bufferCap {
		t.Fatalf("pending %d exceeds ring bound %d", st.PendingSamples, bufferCap)
	}
	// Each RunOnce makes at most one load attempt for the key — requeue
	// arms the backoff and takeIfTriggered refuses before retryAt, even
	// with observers refreshing the ring between scans.
	if n := loads.Load(); n > scans {
		t.Fatalf("loader ran %d times across %d scans", n, scans)
	}
}
