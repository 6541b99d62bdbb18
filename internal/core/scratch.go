package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
	"repro/internal/nn"
)

// A model owns its weights, not its scratch. Every public entry point
// that runs the network (Pretrain, Finetune, PredictBatchInto and
// Predict in both precisions, PropertyCodes, ReconstructionError)
// borrows a workspace arena from a process-wide free list for the length
// of the call and gives it back on the way out; the replica a split
// pre-training step runs its second shard on borrows its own. Between
// calls a model references no arena, so a fresh New or Clone — one per
// context in the paper's second step — costs its weights and batch
// buffers, not a private arena it would have to grow again.
//
// The lists keep the arenas they are given back LIFO, so the next call
// gets the one most recently grown to the shapes in use, and hold at
// most GOMAXPROCS+1 idle arenas per precision (GOMAXPROCS as the process
// started): as many calls as can run at once, plus the replica. An arena
// returned to a full list is dropped. They are not sync.Pools: a pool is
// emptied by every second garbage collection, and training collects
// many times a second.
var (
	arenas64 = newFreeList(mat.NewWorkspace)
	arenas32 = newFreeList(mat.NewWorkspaceF32)
)

// IdleScratchBytes reports the element storage held by the arenas idle
// in the free lists, float64 (training and the float64 model) and
// float32 (serving).
func IdleScratchBytes() (f64, f32 int) {
	return int(arenas64.bytes.Load()), int(arenas32.bytes.Load())
}

// arena is what the free list needs of a workspace.
type arena interface {
	Reset()
	Bytes() int
}

// freeList is a bounded LIFO of idle arenas.
type freeList[W arena] struct {
	mu    sync.Mutex
	idle  []W // cap is the bound
	bytes atomic.Int64
	fresh func() W
}

func newFreeList[W arena](fresh func() W) *freeList[W] {
	return &freeList[W]{idle: make([]W, 0, runtime.GOMAXPROCS(0)+1), fresh: fresh}
}

// get returns the most recently returned idle arena, or a new one.
func (l *freeList[W]) get() W {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		w := l.idle[n-1]
		var none W
		l.idle[n-1] = none
		l.idle = l.idle[:n-1]
		l.bytes.Add(-int64(w.Bytes()))
		l.mu.Unlock()
		return w
	}
	l.mu.Unlock()
	return l.fresh()
}

// put rewinds w and keeps it for the next get, or drops it when the list
// is full.
func (l *freeList[W]) put(w W) {
	w.Reset()
	l.mu.Lock()
	if len(l.idle) < cap(l.idle) {
		l.idle = append(l.idle, w)
		l.bytes.Add(int64(w.Bytes()))
	}
	l.mu.Unlock()
}

// borrowScratch gives m an arena for the call starting now.
func (m *Model) borrowScratch() {
	m.ws = arenas64.get()
	m.scratchPeak = 0
}

// releaseScratch ends the call: it forgets every reference the call left
// into its arena — the forward state and the layer caches — and gives
// the arena back.
func (m *Model) releaseScratch() {
	m.noteRound()
	m.fst = forwardState{}
	for _, n := range [...]*nn.MLP{m.f, m.g, m.h, m.z} {
		n.DropCaches()
	}
	arenas64.put(m.ws)
	m.ws = nil
}

// newRound rewinds the arena for the next forward(+backward) pass,
// noting the size of the one that ends.
func (m *Model) newRound() {
	m.noteRound()
	m.ws.Reset()
}

// noteRound records the round in progress in the call's high-water.
func (m *Model) noteRound() {
	m.scratchPeak = max(m.scratchPeak, m.ws.RoundBytes())
}
