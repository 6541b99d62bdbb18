package mat

// Resized32 returns a matrix with the given shape, reusing m's backing
// storage when it has sufficient capacity (contents are then
// unspecified). It is the reuse primitive for long-lived buffers whose
// shape varies between uses, e.g. batch matrices that outlive a per-step
// workspace Reset. A nil m always allocates.
func Resized32(m *DenseF32, rows, cols int) *DenseF32 {
	if m != nil && cap(m.Data) >= rows*cols && rows >= 0 && cols >= 0 {
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:rows*cols]
		return m
	}
	return NewDenseF32(rows, cols)
}

// WorkspaceF32 is the scratch arena of the compute engine: forward and
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
// A WorkspaceF32 is not safe for concurrent use. A nil *WorkspaceF32 is
// valid: Get allocates a fresh matrix and Reset is a no-op, so
// workspace-threaded code also works without one.
type WorkspaceF32 struct {
	slab slab
	hdrs []*DenseF32 // hdrs[:n] are the matrices handed out this round
	n    int
}

// NewWorkspaceF32 returns an empty float32 workspace.
func NewWorkspaceF32() *WorkspaceF32 { return &WorkspaceF32{} }

// Get returns a zeroed rows x cols matrix that stays valid until the
// next Reset.
func (w *WorkspaceF32) Get(rows, cols int) *DenseF32 {
	m := w.GetRaw(rows, cols)
	if w != nil {
		m.Zero() // NewDenseF32 (the nil-workspace path) is already zeroed
	}
	return m
}

// GetRaw returns a rows x cols matrix with unspecified contents that
// stays valid until the next Reset. A round no larger than every round
// before it allocates nothing.
func (w *WorkspaceF32) GetRaw(rows, cols int) *DenseF32 {
	if w == nil {
		return NewDenseF32(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	if w.n == len(w.hdrs) {
		w.hdrs = append(w.hdrs, new(DenseF32))
	}
	m := w.hdrs[w.n]
	w.n++
	m.Rows, m.Cols, m.Data = rows, cols, w.slab.carve(rows*cols)
	return m
}

// Reset takes back every matrix handed out since the previous Reset;
// they become invalid for the caller (their headers are emptied, so a
// stale use panics instead of reading another round's numbers).
func (w *WorkspaceF32) Reset() {
	if w == nil {
		return
	}
	for _, m := range w.hdrs[:w.n] {
		m.Data = nil
	}
	w.n = 0
	w.slab.reset()
}

// Bytes reports the element storage the workspace holds: its slab plus
// the overflow chunk a round has open.
func (w *WorkspaceF32) Bytes() int {
	if w == nil {
		return 0
	}
	return 4 * w.slab.held()
}

// RoundBytes reports the element storage handed out since the last
// Reset.
func (w *WorkspaceF32) RoundBytes() int {
	if w == nil {
		return 0
	}
	return 4 * w.slab.round
}

// slab is the element storage of an arena.
type slab struct {
	buf   []float32 // buf[:off] is handed out this round
	off   int
	spill []float32 // the open overflow chunk of a round that outgrew buf
	soff  int
	round int // elements handed out this round
}

// carve hands out n elements (contents unspecified) with cap == len:
// from buf while they fit, else from the open chunk, else from a new
// chunk of max(n, len(buf)).
func (s *slab) carve(n int) []float32 {
	s.round += n
	if n <= len(s.buf)-s.off {
		d := s.buf[s.off : s.off+n : s.off+n]
		s.off += n
		return d
	}
	if n > len(s.spill)-s.soff {
		s.spill, s.soff = make([]float32, max(n, len(s.buf))), 0
	}
	d := s.spill[s.soff : s.soff+n : s.soff+n]
	s.soff += n
	return d
}

// reset rewinds. A round that spilled becomes the next slab's size plus
// a quarter for headroom — or, when the open chunk could hold the whole
// round by itself (a first round of one matrix), that chunk.
func (s *slab) reset() {
	if s.round > len(s.buf) {
		if len(s.spill) >= s.round {
			s.buf = s.spill
		} else {
			s.buf = make([]float32, s.round+s.round/4)
		}
	}
	s.spill = nil
	s.off, s.soff, s.round = 0, 0, 0
}

// held is the element count of buf and the open chunk.
func (s *slab) held() int { return len(s.buf) + len(s.spill) }
