package parallel

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// burn is a fixed amount of dependent floating-point work, ~10ns per
// unit on a 2 GHz core.
func burn(units int) float64 {
	x := 1.0
	for i := 0; i < units; i++ {
		x = math.Sqrt(x + float64(i))
	}
	return x
}

var sink float64

// BenchmarkHandoff is the measurement the hot hand-off rests on: one
// iteration is the shape of a sharded training step — two equal pieces
// of work that can overlap (sideUnits each, ~260us) and a serial
// section only the caller runs (serialUnits, ~30us).
//
//	serial   the caller runs both pieces, then the serial section
//	ideal    one piece and the serial section: perfect overlap
//	channel  the second piece goes to a goroutine over a channel
//	helper   the second piece goes to a leased Helper
//
// helper should sit close to ideal; channel pays two thread wake-ups
// per iteration, which on a virtual machine cost more than the piece.
func BenchmarkHandoff(b *testing.B) {
	const sideUnits, serialUnits = 32000, 4000
	side := func() { sink = burn(sideUnits) }
	var other float64
	otherSide := func() { other = burn(sideUnits) }

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			otherSide()
			side()
			sink += burn(serialUnits)
		}
	})
	b.Run("ideal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			side()
			sink += burn(serialUnits)
		}
	})
	b.Run("channel", func(b *testing.B) {
		work, done := make(chan func()), make(chan struct{})
		go func() {
			for fn := range work {
				fn()
				done <- struct{}{}
			}
		}()
		defer close(work)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			work <- otherSide
			side()
			<-done
			sink += burn(serialUnits) + other
		}
	})
	b.Run("helper", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) < 2 {
			b.Skip("no helper to lease at GOMAXPROCS=1")
		}
		h := Lease()
		if h == nil {
			b.Fatal("no helper free")
		}
		defer h.Release()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Start(otherSide)
			side()
			h.Wait()
			sink += burn(serialUnits) + other
		}
	})
}

// procs sets GOMAXPROCS for the rest of the test.
func procs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// eventually polls cond until it holds, failing the test after 5s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(SpinBudget / 4) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestLeaseBoundedByGOMAXPROCS: the process never holds more than
// GOMAXPROCS-1 helpers, a released one can be leased again, and Lease
// returns nil instead of blocking.
func TestLeaseBoundedByGOMAXPROCS(t *testing.T) {
	procs(t, 1)
	if h := Lease(); h != nil {
		h.Release()
		t.Fatal("leased a helper at GOMAXPROCS=1")
	}
	runtime.GOMAXPROCS(3)
	a, b := Lease(), Lease()
	if a == nil || b == nil {
		t.Fatalf("leases at GOMAXPROCS=3: %v, %v; want two helpers", a, b)
	}
	if c := Lease(); c != nil {
		t.Fatal("leased a third helper at GOMAXPROCS=3")
	}
	a.Release()
	if a = Lease(); a == nil {
		t.Fatal("a released helper's core did not return to the budget")
	}
	a.Release()
	b.Release()
	var none *Helper
	none.Release() // what a deferred Release does after a failed Lease
}

// TestHelperRunsEveryHandOff offers a helper many pieces of work that
// touch memory the caller reads back without further synchronization:
// under -race this is the check that Start and Wait order the two sides,
// whichever of them ends up running the piece. Now and then one side is
// slow enough for the other to park, so that hand-offs cross every
// combination of polling and parked partners.
func TestHelperRunsEveryHandOff(t *testing.T) {
	procs(t, 2)
	h := Lease()
	if h == nil {
		t.Fatal("no helper at GOMAXPROCS=2")
	}
	defer h.Release()
	var n, in, helped int
	add := func() {
		if in%89 == 0 {
			time.Sleep(2 * SpinBudget)
		}
		n += in
	}
	want := 0
	for i := 1; i <= 3000; i++ {
		if i%97 == 0 {
			time.Sleep(2 * SpinBudget)
		}
		in = i
		h.Start(add)
		sink = burn(i % 300) // the caller's own share: 0 to 3us
		if h.Wait() {
			helped++
		}
		if want += i; n != want {
			t.Fatalf("after hand-off %d the sum is %d, want %d", i, n, want)
		}
	}
	if helped == 0 || helped == 3000 {
		t.Logf("the helper ran %d of 3000 pieces: one of the two paths went untested", helped)
	}
}

// TestHelperParksWhenIdle: a leased helper polls for at most SpinBudget
// after its last hand-off and then parks; the next hand-off wakes it,
// unless the caller is back first and runs the work itself; work longer
// than the budget parks the waiting caller instead; a released helper
// parks without waiting out its budget, and the next lease is the same
// goroutine, woken by its first hand-off.
func TestHelperParksWhenIdle(t *testing.T) {
	procs(t, 2)
	ran := 0
	count := func() { ran++ }
	var h *Helper
	parked := func() {
		t.Helper()
		eventually(t, "the idle helper parks", h.helperParked.Load)
		if n := Spinning(); n != 0 {
			t.Fatalf("%d helpers polling while the only one is parked", n)
		}
	}
	taken := func() bool { return h.claimed.Load() == h.posted.Load() }
	func() {
		if h = Lease(); h == nil {
			t.Fatal("no helper at GOMAXPROCS=2")
		}
		defer h.Release()

		parked()
		h.Start(count)
		eventually(t, "the parked helper wakes and takes the hand-off", taken)
		if !h.Wait() || ran != 1 {
			t.Fatalf("a hand-off the helper took: Wait says otherwise, or it ran %d times", ran)
		}

		parked()
		h.Start(func() { time.Sleep(5 * SpinBudget); ran++ })
		eventually(t, "the parked helper wakes and takes the long hand-off", taken)
		if !h.Wait() || ran != 2 {
			t.Fatal("Wait returned before work longer than the spin budget had finished")
		}

		parked()
		h.Start(count)
		h.Wait() // at once: almost surely before the helper is awake
		if ran != 3 {
			t.Fatalf("a hand-off waited for at once ran %d times, want once", ran-2)
		}
	}()

	goroutines := runtime.NumGoroutine()
	parked()
	again := Lease()
	if again == nil {
		t.Fatal("the released helper's core did not return to the budget")
	}
	defer again.Release()
	if again != h {
		t.Fatal("a lease after a release started another helper")
	}
	h.Start(count)
	eventually(t, "the re-leased helper wakes and takes the hand-off", taken)
	if !h.Wait() || ran != 4 {
		t.Fatalf("a hand-off to a re-leased helper: Wait says it did not take it, or it ran %d times", ran-3)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Fatalf("%d goroutines after a release and a lease, %d before", n, goroutines)
	}
}

// TestLateHelperIsWokenLessOften: a parked helper is woken for every
// offer until it misses one; while it keeps missing them — here because
// the caller is back for each at once — the wake-ups thin out to one
// offer in 64, and the first offer it gets to restores them.
func TestLateHelperIsWokenLessOften(t *testing.T) {
	procs(t, 2)
	h := Lease()
	if h == nil {
		t.Fatal("no helper at GOMAXPROCS=2")
	}
	defer h.Release()
	ran := 0
	count := func() { ran++ }
	woken, missed := 0, 0
	for i := 1; i <= 300; i++ {
		eventually(t, "the idle helper parks", h.helperParked.Load)
		h.Start(count)
		if !h.helperParked.Load() {
			woken++
		}
		if !h.Wait() {
			missed++
		}
		if ran != i {
			t.Fatalf("after %d hand-offs the work ran %d times", i, ran)
		}
	}
	// 300 wake-ups without the back-off; with it 1 + 1/2 + 1/4 ... of the
	// first hundred or so offers and 1/64 of the rest, had every one been
	// missed.
	if missed < 200 {
		t.Skipf("the helper got to %d of 300 offers waited for at once: nothing to thin out", 300-missed)
	}
	if woken > 100 {
		t.Fatalf("a helper that missed %d of 300 offers was woken for %d of them", missed, woken)
	}

	// The next offer it is woken for, it is given the time to take.
	for {
		eventually(t, "the idle helper parks", h.helperParked.Load)
		h.Start(count)
		if !h.helperParked.Load() {
			break
		}
		h.Wait()
	}
	eventually(t, "the woken helper takes the offer", func() bool { return h.claimed.Load() == h.posted.Load() })
	if !h.Wait() || h.missed != 0 {
		t.Fatalf("an offer the helper took left the caller counting %d misses", h.missed)
	}
	eventually(t, "the idle helper parks", h.helperParked.Load)
	h.Start(count)
	if h.helperParked.Load() {
		t.Fatal("a helper that keeps up was not woken for the next offer")
	}
	h.Wait()
}

// TestForEachHoldsTheBudget: workers past the first count as cores in
// use, so work fanned one item per core finds no helper to lease, and
// the same work run serially does.
func TestForEachHoldsTheBudget(t *testing.T) {
	procs(t, 2)
	var leased [2]bool
	try := func(i int) {
		h := Lease()
		leased[i] = h != nil
		h.Release()
	}
	ForEach(2, 2, try)
	if leased[0] || leased[1] {
		t.Fatalf("leases inside a 2-worker ForEach at GOMAXPROCS=2: %v, want none", leased)
	}
	ForEach(2, 1, try)
	if !leased[0] || !leased[1] {
		t.Fatalf("leases inside a serial ForEach at GOMAXPROCS=2: %v, want both", leased)
	}
	if h := Lease(); h == nil {
		t.Fatal("ForEach did not return its cores to the budget")
	} else {
		h.Release()
	}
}
