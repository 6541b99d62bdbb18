package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// extra counts the cores beyond their callers' own that this package has
// handed out: one per leased Helper and one per ForEach worker past the
// first. It never exceeds GOMAXPROCS-1, which is what keeps a training
// step from leasing a helper on a machine whose cores already run one
// trial each.
var extra atomic.Int32

// reserve takes up to want cores from the process-wide budget of
// GOMAXPROCS-1 without blocking and returns how many it got.
func reserve(want int) int {
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		cur := extra.Load()
		n := min(int32(want), limit-cur)
		if n <= 0 {
			return 0
		}
		if extra.CompareAndSwap(cur, cur+n) {
			return int(n)
		}
	}
}

// unreserve returns n cores to the budget.
func unreserve(n int) { extra.Add(-int32(n)) }

// SpinBudget bounds how long either side of a hand-off polls before it
// parks on a channel. It is longer than anything that separates two
// offers of a busy caller — a training step's serial section (gradient
// reduction and the optimizer, ~30us), an epoch's evaluation pass (a few
// hundred), a whole step the caller ended up running alone (~500us) — so
// a helper in use does not park, and short enough that one whose caller
// went quiet without releasing it gives its core up within a
// millisecond. Each poll yields the CPU (runtime.Gosched, then the
// kernel's sched_yield where there is one), so polling delays nothing
// that is ready to run there.
const SpinBudget = time.Millisecond

// spinning counts the goroutines polling on a hand-off.
var spinning atomic.Int32

// Spinning reports how many goroutines are polling on a hand-off right
// now: helpers for their next offer, callers for a helper to finish the
// last. Both poll only during a lease and for at most SpinBudget at a
// time, so it reads 0 unless somebody is in the middle of a computation
// that uses a helper.
func Spinning() int { return int(spinning.Load()) }

// Helper is a goroutine leased to run work for one caller at a time,
// concurrently with that caller: Start hands it a function, Wait joins.
// The hand-off is an atomic sequence number that both sides poll for
// SpinBudget before parking on a channel, because the work it exists
// for — half of a training step, a few hundred microseconds — is
// shorter than waking a parked thread takes (see BenchmarkHandoff).
//
// A hand-off is an offer, not a queue: if the helper has not begun the
// function by the time the caller Waits — it was parked and is still
// waking, or the kernel runs its thread on the caller's CPU because the
// other one is taken — the caller runs the function itself. A helper
// that finds its offer gone parks at once, and Start wakes it for fewer
// and fewer of the offers that follow until it gets to one in time. A
// helper that cannot help therefore costs next to nothing over running
// without one, and the function must not care which of the two
// goroutines runs it. A Helper is not safe for use by more than one
// goroutine.
type Helper struct {
	fn     func()
	missed uint // the caller's count of offers in a row it ran itself

	posted  atomic.Uint32 // hand-offs Start has published
	claimed atomic.Uint32 // hand-offs one of the two sides has taken on
	done    atomic.Uint32 // hand-offs the helper has finished

	// leased is false between Release and the next Lease; a helper that
	// sees it false parks without polling.
	leased atomic.Bool
	// A side sets its flag before blocking on its channel; whoever
	// clears it (compare-and-swap) owes, or has spared, the wake-up.
	helperParked, callerParked atomic.Bool
	wake, fin                  chan struct{}
}

// idle holds the helpers not leased right now. Their goroutines stay,
// parked, for the life of the process: a lease costs no goroutine start
// and a release no goroutine exit, neither of which a caller with
// milliseconds of work should wait for. There are never more of them
// than leases were ever held at once, so at most GOMAXPROCS-1.
var idle struct {
	sync.Mutex
	helpers []*Helper
}

// Lease returns a helper, or nil when GOMAXPROCS-1 cores are already
// taken by other leases and ForEach workers (always, at GOMAXPROCS=1).
// It never blocks. The caller must Release the helper.
func Lease() *Helper {
	if reserve(1) == 0 {
		return nil
	}
	var h *Helper
	idle.Lock()
	if n := len(idle.helpers); n > 0 {
		h, idle.helpers = idle.helpers[n-1], idle.helpers[:n-1]
	}
	idle.Unlock()
	if h == nil {
		h = &Helper{wake: make(chan struct{}, 1), fin: make(chan struct{}, 1)}
		go h.loop()
	}
	h.missed = 0
	h.leased.Store(true)
	return h
}

// Start offers fn to the helper and returns at once. Every Start must
// be followed by a Wait before the next Start or the Release.
func (h *Helper) Start(fn func()) {
	h.fn = fn
	seq := h.posted.Add(1)
	// Waking a parked helper costs the caller tens of microseconds, for
	// nothing if it then arrives too late — as it keeps doing while the
	// kernel has both threads on one CPU. So a helper that has missed
	// its last offers is woken for one offer in 2, 4, ... 64 only; the
	// first it gets to puts it back on every one.
	if seq&(1<<min(h.missed, 6)-1) != 0 {
		return
	}
	if h.helperParked.Load() && h.helperParked.CompareAndSwap(true, false) {
		h.wake <- struct{}{}
	}
}

// Wait returns once the function offered by the last Start has run, and
// reports whether the helper ran it; false means Wait found it not yet
// begun and ran it on the calling goroutine. Either way what it wrote
// is visible to the caller.
func (h *Helper) Wait() (helped bool) {
	seq := h.posted.Load()
	if h.claimed.CompareAndSwap(seq-1, seq) {
		h.missed++
		h.fn()
		return false
	}
	h.missed = 0
	await(&h.done, seq, &h.leased, &h.callerParked, h.fin)
	return true
}

// Release ends the lease and returns the core to the budget; the helper
// stops polling as soon as it notices and parks until it is leased and
// handed something again. Release never waits for it. Release on a nil
// Helper does nothing, so a failed Lease can be deferred like a
// successful one.
func (h *Helper) Release() {
	if h == nil {
		return
	}
	h.fn = nil
	h.leased.Store(false)
	idle.Lock()
	idle.helpers = append(idle.helpers, h)
	idle.Unlock()
	unreserve(1)
}

func (h *Helper) loop() {
	poll := &h.leased
	for seen := uint32(0); ; {
		slept := await(&h.posted, seen+1, poll, &h.helperParked, h.wake)
		// The newest hand-off; older ones the caller has run itself.
		seen = h.posted.Load()
		poll = &h.leased
		if !h.claimed.CompareAndSwap(seen-1, seen) {
			// Too late: the caller is running this one too. Fresh from
			// its sleep the helper polls for the next, which is how it
			// falls in step. Late although it was polling, it has no
			// CPU of its own to poll on — the kernel runs it where the
			// caller runs — and would only be in the way: it parks.
			if !slept {
				poll = &never
			}
			continue
		}
		h.fn()
		h.done.Store(seen)
		if h.callerParked.Load() && h.callerParked.CompareAndSwap(true, false) {
			h.fin <- struct{}{}
		}
	}
}

// never is the poll condition of a helper that is to park at once.
var never atomic.Bool

// await returns once seq has reached want, and reports whether it slept
// on the way: it polls for SpinBudget, or until while reads false, then
// parks on ch until the side that advances seq sends the wake-up it
// owes a parked waiter.
func await(seq *atomic.Uint32, want uint32, while, parked *atomic.Bool, ch chan struct{}) (slept bool) {
	reached := func() bool { return int32(seq.Load()-want) >= 0 }
	for !reached() {
		spinning.Add(1)
		start := time.Now()
		for i := 1; !reached() && while.Load(); i++ {
			// The clock costs as much as a few dozen polls; read it rarely.
			if i%64 == 0 && time.Since(start) > SpinBudget {
				break
			}
			runtime.Gosched()
			osYield()
		}
		spinning.Add(-1)
		if reached() {
			break
		}
		parked.Store(true)
		// The other side advances seq and then reads parked; this side
		// set parked and now reads seq. One of the two sees the other's
		// write.
		if reached() && parked.CompareAndSwap(true, false) {
			break
		}
		// The wake-up may be one the other side owed for an earlier
		// advance and paid late — it was descheduled between advancing
		// seq and reading parked, long enough for this side to finish
		// that round and park for the next — so it proves nothing:
		// look again.
		<-ch
		slept = true
	}
	return slept
}
