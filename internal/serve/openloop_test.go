package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// An open-loop load generator for the overload tests: it fires requests
// on a fixed arrival schedule regardless of completions — the only way
// to see how a server behaves past saturation, since a closed loop slows
// its own offered load down to whatever the server can absorb.

// outcome classifies one completed request.
type outcome int

const (
	outcomeOK       outcome = iota // a 2xx response: goodput
	outcomeShed                    // a 503 from the admission gate
	outcomeDeadline                // a 504: the budget ran out server-side
	outcomeError                   // anything else
	numOutcomes
)

// openLoopConfig tunes one run.
type openLoopConfig struct {
	// Rate is the offered load in arrivals per second (> 0).
	Rate float64
	// Duration bounds the arrival schedule; in-flight requests are
	// awaited past it.
	Duration time.Duration
	// MaxOutstanding caps concurrently in-flight requests, protecting
	// the generator when the server stops answering. Arrivals past the
	// cap are counted as Dropped, so a saturated generator cannot pass
	// for a healthy server (<= 0: 4096).
	MaxOutstanding int
}

// openLoopResult aggregates one run.
type openLoopResult struct {
	Offered float64
	Elapsed time.Duration
	// Sent counts issued requests; Dropped arrivals skipped because
	// MaxOutstanding was reached.
	Sent, Dropped              int64
	OK, Shed, Deadline, Errors int64
	// OKLatency holds latencies of successful responses, ShedLatency
	// those of sheds: the price of a rejection, which must stay small
	// under overload.
	OKLatency, ShedLatency *obs.Hist
}

// Goodput is the successful-response rate in responses per second.
func (r openLoopResult) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// runOpenLoop drives op at cfg.Rate for cfg.Duration and aggregates
// outcomes. A slow server does not slow the schedule down; it only
// accumulates in-flight requests until MaxOutstanding protects the
// generator. op receives the arrival's sequence number and must be safe
// for concurrent calls.
func runOpenLoop(cfg openLoopConfig, op func(seq int) outcome) openLoopResult {
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 4096
	}
	res := openLoopResult{Offered: cfg.Rate, OKLatency: obs.NewHist(), ShedLatency: obs.NewHist()}
	var (
		wg       sync.WaitGroup
		sent     atomic.Int64
		dropped  atomic.Int64
		counts   [numOutcomes]atomic.Int64
		sem      = make(chan struct{}, cfg.MaxOutstanding)
		interval = time.Duration(float64(time.Second) / cfg.Rate)
		start    = time.Now()
		deadline = start.Add(cfg.Duration)
		next     = start
		seq      = 0
	)
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		// Launch every arrival the schedule says is due; sleeping once
		// per batch keeps the schedule accurate at rates well above the
		// sleep granularity.
		for !next.After(now) {
			next = next.Add(interval)
			select {
			case sem <- struct{}{}:
			default:
				dropped.Add(1)
				seq++
				continue
			}
			sent.Add(1)
			wg.Add(1)
			go func(seq int) {
				defer wg.Done()
				defer func() { <-sem }()
				t0 := time.Now()
				out := op(seq)
				lat := time.Since(t0)
				counts[out].Add(1)
				switch out {
				case outcomeOK:
					res.OKLatency.Observe(lat)
				case outcomeShed:
					res.ShedLatency.Observe(lat)
				}
			}(seq)
			seq++
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(min(d, time.Millisecond))
		}
	}
	res.Elapsed = time.Since(start)
	wg.Wait()
	res.Sent, res.Dropped = sent.Load(), dropped.Load()
	res.OK, res.Shed = counts[outcomeOK].Load(), counts[outcomeShed].Load()
	res.Deadline, res.Errors = counts[outcomeDeadline].Load(), counts[outcomeError].Load()
	return res
}

// TestOpenLoopSchedule: the generator issues roughly Rate*Duration
// arrivals and classifies their outcomes.
func TestOpenLoopSchedule(t *testing.T) {
	var n atomic.Int64
	res := runOpenLoop(openLoopConfig{Rate: 2000, Duration: 200 * time.Millisecond}, func(seq int) outcome {
		n.Add(1)
		switch seq % 4 {
		case 0:
			return outcomeDeadline
		case 1:
			return outcomeShed
		default:
			return outcomeOK
		}
	})
	want := int64(2000 * 0.2)
	if res.Sent < want/2 || res.Sent > want*2 {
		t.Fatalf("sent = %d, want ~%d", res.Sent, want)
	}
	if res.Sent != n.Load() {
		t.Fatalf("sent = %d but op ran %d times", res.Sent, n.Load())
	}
	if got := res.OK + res.Shed + res.Deadline + res.Errors; got != res.Sent {
		t.Fatalf("outcomes sum to %d, want %d", got, res.Sent)
	}
	if res.OK == 0 || res.Shed == 0 || res.Deadline == 0 {
		t.Fatalf("outcome mix missing classes: %+v", res)
	}
	if res.OKLatency.Count() != res.OK || res.ShedLatency.Count() != res.Shed {
		t.Fatal("latency histograms do not match outcome counts")
	}
	if res.Goodput() <= 0 {
		t.Fatal("goodput = 0, want positive")
	}
}

// TestOpenLoopBoundsOutstanding: with op blocking past the cap, the
// generator drops arrivals instead of growing without bound.
func TestOpenLoopBoundsOutstanding(t *testing.T) {
	block := make(chan struct{})
	// Unblock the stuck ops after the schedule ends so the final wait
	// can finish.
	timer := time.AfterFunc(150*time.Millisecond, func() { close(block) })
	defer timer.Stop()
	res := runOpenLoop(openLoopConfig{Rate: 5000, Duration: 100 * time.Millisecond, MaxOutstanding: 8}, func(int) outcome {
		<-block
		return outcomeError
	})
	if res.Dropped == 0 {
		t.Fatal("no arrivals dropped despite a stuck server and an 8-request cap")
	}
	if res.Sent > 8 {
		t.Fatalf("sent = %d, want <= MaxOutstanding", res.Sent)
	}
}
