package main

import (
	"fmt"
	"io"
	"time"
)

// measuredRounds is how many rounds the measured phase is split into:
// enough for a median to discard two bad ones.
const measuredRounds = 5

// runOpts sizes one benchmark run.
type runOpts struct {
	rounds    int
	roundDur  time.Duration
	warmup    time.Duration
	setupReps int
}

// active is one workload on its way through the runner.
type active struct {
	w      workload
	res    WorkloadResult
	rounds []*recorder
	setups []float64
	start  time.Time
	dead   bool // set-up or a boundary failed; skip the rest
}

func (a *active) abort(format string, args ...any) {
	a.res.fail(format, args...)
	a.dead = true
}

// runWorkloads takes the workloads through set-up, warm-up, the
// measured rounds and teardown. With several workloads the rounds are
// interleaved A B C D A B C D ..., so a drift in host load hits all
// alike; only the workload whose round it is sends traffic. With one
// workload its rounds run back to back.
func runWorkloads(ws []workload, opt runOpts, progress io.Writer) []WorkloadResult {
	acts := make([]*active, len(ws))
	for i, w := range ws {
		acts[i] = &active{w: w, res: WorkloadResult{Name: w.Name(), Correct: true}, start: time.Now()}
	}

	// Set-up, timed: several complete set-ups, each but the last torn
	// down again, so the reported time is a median and not one draw.
	for _, a := range acts {
		for rep := 0; rep < opt.setupReps && !a.dead; rep++ {
			start := time.Now()
			if err := a.w.Setup(); err != nil {
				a.abort("set-up: %v", err)
				break
			}
			a.setups = append(a.setups, time.Since(start).Seconds())
			if rep < opt.setupReps-1 {
				if err := a.w.Teardown(); err != nil {
					a.abort("teardown between set-ups: %v", err)
				}
			}
		}
		fmt.Fprintf(progress, "bench: %s set up %d times: %.2fs\n", a.w.Name(), len(a.setups), a.setups)
	}

	for _, a := range acts {
		if !a.dead {
			a.w.Run(opt.warmup) // fills caches, loads models; not measured
		}
	}
	for _, a := range acts {
		if !a.dead {
			if err := a.w.Boundary(); err != nil {
				a.abort("reading counters before the measured phase: %v", err)
			}
		}
	}
	for r := 0; r < opt.rounds; r++ {
		for _, a := range acts {
			if a.dead {
				continue
			}
			before := readHostCPU()
			rec := a.w.Run(opt.roundDur)
			a.res.StealPerRound = append(a.res.StealPerRound, stealFrac(before, readHostCPU()))
			a.rounds = append(a.rounds, rec)
		}
	}
	for _, a := range acts {
		if !a.dead {
			if err := a.w.Boundary(); err != nil {
				a.abort("reading counters after the measured phase: %v", err)
			}
		}
	}
	for _, a := range acts {
		if err := a.w.Teardown(); err != nil {
			a.res.fail("teardown: %v", err)
		}
	}

	out := make([]WorkloadResult, len(acts))
	for i, a := range acts {
		res := &a.res
		for _, rec := range a.rounds {
			res.Attempted += rec.attempted
			res.Failed += rec.failed
			for _, f := range rec.failures {
				res.fail("%s", f)
			}
		}
		if res.Failed > 0 {
			res.Correct = false
		}
		if len(a.setups) > 0 {
			lo, hi := a.setups[0], a.setups[0]
			for _, s := range a.setups {
				lo, hi = min(lo, s), max(hi, s)
			}
			res.addE2E("setup_s", median(a.setups), len(a.setups), lo, hi)
		}
		if !a.dead {
			a.w.Report(res, a.rounds, opt.roundDur)
		}
		res.WallSec = time.Since(a.start).Seconds()
		res.addLayer("driver.wall_s", "s", res.WallSec, 1)
		res.addLayer("driver.host_steal_frac", "ratio", meanOf(res.StealPerRound), len(res.StealPerRound))
		if res.Attempted == 0 {
			res.fail("%s: nothing was attempted", res.Name)
		}
		out[i] = *res
	}
	return out
}
