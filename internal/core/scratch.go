package core

import (
	"repro/internal/freelist"
	"repro/internal/mat"
	"repro/internal/nn"
)

// A model owns its weights, not its scratch. Every public entry point
// that runs the network (Pretrain, Finetune, PredictBatchInto and
// Predict, on a Model or an InferModel) borrows a float32 workspace
// arena from a process-wide free list for the length of the call and
// gives it back on the way out; the replica a split pre-training step
// runs its second shard on borrows its own. Between calls a model
// references no arena, so a fresh New or Clone — one per context in the
// paper's second step — costs its weights and batch buffers, not a
// private arena it would have to grow again.
//
// The arenas idle on a free list (see package freelist), at most
// GOMAXPROCS+1: as many calls as can run at once, plus the replica. The
// list has no byte bound: an arena holds what the largest pass it served
// needed.
var arenas = freelist.New(mat.NewWorkspaceF32, 0)

// IdleScratchBytes reports the element storage held by the arenas idle
// in the free list.
func IdleScratchBytes() int { return arenas.IdleBytes() }

// borrowScratch gives m an arena for the call starting now.
func (m *Model) borrowScratch() {
	m.ws = arenas.Get()
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
	arenas.Put(m.ws)
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
