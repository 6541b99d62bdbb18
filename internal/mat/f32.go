package mat

// Float32 serving types. Training stays float64 end to end; the serve
// layer quantizes published model weights into DenseF32 matrices and
// runs inference through the f32 kernels in mul32.go, halving the
// memory traffic of every forward pass. The types mirror Dense and
// Workspace exactly — same invariants, same nil-safety, same zero-alloc
// steady state — so the nn/core inference paths read like their f64
// twins.

// DenseF32 is a dense row-major float32 matrix.
type DenseF32 struct {
	Rows, Cols int
	Data       []float32
}

// NewDenseF32 returns a zeroed rows x cols float32 matrix.
func NewDenseF32(rows, cols int) *DenseF32 {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &DenseF32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// QuantizeDense converts a float64 matrix to its float32 serving form,
// rounding each weight to the nearest float32.
func QuantizeDense(m *Dense) *DenseF32 {
	q := &DenseF32{Rows: m.Rows, Cols: m.Cols, Data: make([]float32, len(m.Data))}
	for i, v := range m.Data {
		q.Data[i] = float32(v)
	}
	return q
}

// Row returns row i as a slice sharing the matrix storage.
func (m *DenseF32) Row(i int) []float32 {
	if uint(i) >= uint(m.Rows) {
		panic("mat: row index out of range")
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Zero sets every element to 0.
func (m *DenseF32) Zero() { clear(m.Data) }

// Resized32 is the float32 Resized: a matrix with the given shape,
// reusing m's backing storage when it has sufficient capacity (contents
// are then unspecified). A nil m always allocates.
func Resized32(m *DenseF32, rows, cols int) *DenseF32 {
	if m != nil && cap(m.Data) >= rows*cols && rows >= 0 && cols >= 0 {
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:rows*cols]
		return m
	}
	return NewDenseF32(rows, cols)
}

// WorkspaceF32 is the float32 Workspace: the same bump arena over a
// float32 slab, recycled by Reset. Not safe for concurrent use; a nil
// workspace degrades to plain allocation.
type WorkspaceF32 struct {
	slab slab[float32]
	hdrs []*DenseF32 // hdrs[:n] are the matrices handed out this round
	n    int
}

// NewWorkspaceF32 returns an empty float32 workspace.
func NewWorkspaceF32() *WorkspaceF32 { return &WorkspaceF32{} }

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

// Reset takes back every matrix handed out since the previous Reset.
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
