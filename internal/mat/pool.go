package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The shared kernel worker pool. Large products split their output-row
// range into panels that workers claim with an atomic counter; the
// calling goroutine always participates, so a saturated pool degrades
// to serial execution instead of blocking. Because the pool is bounded
// at GOMAXPROCS-1 resident workers for the whole process, nested
// parallelism (e.g. hyperopt trials fanned across cores, each running
// matmuls) cannot oversubscribe the machine the way per-call goroutine
// spawning did.
//
// The unit of work is an output-row panel: a block of rows sized so one
// claim amortizes the claim's atomic traffic. Jobs carry an operation
// code plus operands instead of a closure so steady-state parallel
// products allocate nothing.

// panelOp selects the kernel a panelJob runs per claimed panel range.
type panelOp uint8

const (
	opMulRows   panelOp = iota // dst rows = a*b rows
	opMulRows32                // float32 dst rows = a*b rows
)

// panelJob is one parallel product: workers claim panel chunks via the
// atomic next counter. Jobs are pooled so steady-state parallel
// products allocate nothing.
type panelJob struct {
	op        panelOp
	a, b, dst *Dense
	a32, b32  *DenseF32 // float32 operands
	dst32     *DenseF32
	nPanels   int
	chunk     int // panels per claim
	next      atomic.Int64
	wg        sync.WaitGroup
}

func (j *panelJob) run() {
	defer j.wg.Done()
	for {
		t := int(j.next.Add(1)) - 1
		if t*j.chunk >= j.nPanels {
			return
		}
		p0 := t * j.chunk
		p1 := p0 + j.chunk
		if p1 > j.nPanels {
			p1 = j.nPanels
		}
		j.runPanels(p0, p1)
	}
}

// runPanels executes panels [p0,p1): rows [p0,p1)*rowPanel, clamped to
// the true row count of the output dimension.
func (j *panelJob) runPanels(p0, p1 int) {
	lo := p0 * rowPanel
	hi := p1 * rowPanel
	switch j.op {
	case opMulRows:
		if hi > j.a.Rows {
			hi = j.a.Rows
		}
		mulRows(j.dst, j.a, j.b, lo, hi)
	case opMulRows32:
		if hi > j.a32.Rows {
			hi = j.a32.Rows
		}
		mulRows32(j.dst32, j.a32, j.b32, lo, hi)
	}
}

var (
	poolOnce sync.Once
	poolCh   chan *panelJob
	jobPool  = sync.Pool{New: func() any { return new(panelJob) }}
)

// startPool starts the GOMAXPROCS-1 resident workers. It runs on the
// first product that fans out, which fansOut admits only past
// GOMAXPROCS=1, so there is at least one.
func startPool() {
	n := runtime.GOMAXPROCS(0) - 1
	poolCh = make(chan *panelJob, n)
	for i := 0; i < n; i++ {
		go func() {
			for j := range poolCh {
				j.run()
			}
		}()
	}
}

// runParallel fans j's panels across the shared worker pool. Submission
// is non-blocking: when the pool is busy the caller simply computes
// more panels itself. The job's operands are cleared and the job
// recycled before returning.
func runParallel(j *panelJob) {
	poolOnce.Do(startPool)
	workers := runtime.GOMAXPROCS(0)
	if workers > j.nPanels {
		workers = j.nPanels
	}
	j.chunk = (j.nPanels + workers - 1) / workers
	j.next.Store(0)
submit:
	for i := 0; i < workers-1; i++ {
		j.wg.Add(1)
		select {
		case poolCh <- j:
		default:
			j.wg.Done()
			break submit // pool saturated; run the rest on the caller
		}
	}
	j.wg.Add(1)
	j.run()
	j.wg.Wait()
	j.a, j.b, j.dst = nil, nil, nil
	j.a32, j.b32, j.dst32 = nil, nil, nil
	jobPool.Put(j)
}

// newJob draws a pooled job over rows output rows.
func newJob(op panelOp, rows int) *panelJob {
	j := jobPool.Get().(*panelJob)
	j.op = op
	j.nPanels = (rows + rowPanel - 1) / rowPanel
	return j
}
