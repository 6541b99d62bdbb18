package nn

import "errors"

// State is a snapshot of a slab's values — the whole value block, one
// copy — which the training loops keep their best epoch's weights in.
// It restores only into the slab it was taken from. The model file
// format lives in internal/core.
type State struct {
	from   *Slab
	values []float32
}

// CaptureStateInto copies the current values of s into dst, reusing its
// storage, so repeated captures (best-state tracking every improved
// epoch) stop allocating. A nil dst allocates a fresh state. It returns
// dst.
func CaptureStateInto(dst *State, s *Slab) *State {
	if dst == nil {
		dst = new(State)
	}
	dst.from, dst.values = s, append(dst.values[:0], s.values...)
	return dst
}

// RestoreState loads captured values back into s, the slab st was taken
// from.
func RestoreState(s *Slab, st *State) error {
	if st == nil || st.from != s {
		return errors.New("nn: state was not captured from this slab")
	}
	copy(s.values, st.values)
	return nil
}
