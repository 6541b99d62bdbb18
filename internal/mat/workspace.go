package mat

import "fmt"

// Workspace is the scratch arena of the compute engine: forward and
// backward passes take their intermediates from it instead of
// allocating, and whoever holds it calls Reset once per round — one
// forward(+backward) pass — to take every buffer back at once.
//
// It is a bump arena. Get and GetRaw carve rows*cols elements off one
// slab with a full slice expression, so a matrix's cap equals its len
// and an append to it cannot reach a neighbour; matrix headers are
// reused by index, and Reset rewinds. A round that outgrows the slab
// carries on in an overflow chunk of max(size, slab), and the next Reset
// folds the round into one slab of 1.25x its size. A round no larger
// than every round before it therefore allocates nothing, whatever
// shapes it asks for in whatever order, and the arena holds at most
// 1.25x its largest round plus the chunk a round has open.
//
// A Workspace is not safe for concurrent use. A nil *Workspace is valid:
// Get allocates a fresh matrix and Reset is a no-op, so workspace-
// threaded code also works without one.
type Workspace struct {
	slab slab[float64]
	hdrs []*Dense // hdrs[:n] are the matrices handed out this round
	n    int
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Get returns a zeroed rows x cols matrix that stays valid until the
// next Reset.
func (w *Workspace) Get(rows, cols int) *Dense {
	m := w.GetRaw(rows, cols)
	if w != nil {
		m.Zero() // NewDense (the nil-workspace path) is already zeroed
	}
	return m
}

// GetRaw is Get without the zeroing: the buffer's contents are
// unspecified. It is for callers that fully overwrite the buffer (every
// *To kernel does), saving a memset on the hot path.
func (w *Workspace) GetRaw(rows, cols int) *Dense {
	if w == nil {
		return NewDense(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	if w.n == len(w.hdrs) {
		w.hdrs = append(w.hdrs, new(Dense))
	}
	m := w.hdrs[w.n]
	w.n++
	m.Rows, m.Cols, m.Data = rows, cols, w.slab.carve(rows*cols)
	return m
}

// Reset takes back every matrix handed out since the previous Reset;
// they become invalid for the caller (their headers are emptied, so a
// stale use panics instead of reading another round's numbers).
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	for _, m := range w.hdrs[:w.n] {
		m.Data = nil
	}
	w.n = 0
	w.slab.reset()
}

// NumBuffers reports how many matrix headers the workspace owns: the
// most matrices any one round has asked for.
func (w *Workspace) NumBuffers() int {
	if w == nil {
		return 0
	}
	return len(w.hdrs)
}

// Bytes reports the element storage the workspace holds: its slab plus
// the overflow chunk a round has open.
func (w *Workspace) Bytes() int {
	if w == nil {
		return 0
	}
	return 8 * w.slab.held()
}

// RoundBytes reports the element storage handed out since the last
// Reset.
func (w *Workspace) RoundBytes() int {
	if w == nil {
		return 0
	}
	return 8 * w.slab.round
}

// slab is the element storage of an arena, the same for both precisions.
type slab[T float32 | float64] struct {
	buf   []T // buf[:off] is handed out this round
	off   int
	spill []T // the open overflow chunk of a round that outgrew buf
	soff  int
	round int // elements handed out this round
}

// carve hands out n elements (contents unspecified) with cap == len:
// from buf while they fit, else from the open chunk, else from a new
// chunk of max(n, len(buf)).
func (s *slab[T]) carve(n int) []T {
	s.round += n
	if n <= len(s.buf)-s.off {
		d := s.buf[s.off : s.off+n : s.off+n]
		s.off += n
		return d
	}
	if n > len(s.spill)-s.soff {
		s.spill, s.soff = make([]T, max(n, len(s.buf))), 0
	}
	d := s.spill[s.soff : s.soff+n : s.soff+n]
	s.soff += n
	return d
}

// reset rewinds. A round that spilled becomes the next slab's size plus
// a quarter for headroom — or, when the open chunk could hold the whole
// round by itself (a first round of one matrix), that chunk.
func (s *slab[T]) reset() {
	if s.round > len(s.buf) {
		if len(s.spill) >= s.round {
			s.buf = s.spill
		} else {
			s.buf = make([]T, s.round+s.round/4)
		}
	}
	s.spill = nil
	s.off, s.soff, s.round = 0, 0, 0
}

// held is the element count of buf and the open chunk.
func (s *slab[T]) held() int { return len(s.buf) + len(s.spill) }

// Resized returns a matrix with the given shape, reusing m's backing
// storage when it has sufficient capacity (contents are then
// unspecified). It is the reuse primitive for long-lived buffers whose
// shape varies between uses, e.g. batch matrices that outlive a
// per-step workspace Reset. A nil m always allocates.
func Resized(m *Dense, rows, cols int) *Dense {
	if m != nil && cap(m.Data) >= rows*cols && rows >= 0 && cols >= 0 {
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:rows*cols]
		return m
	}
	return NewDense(rows, cols)
}
