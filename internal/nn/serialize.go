package nn

import (
	"fmt"

	"repro/internal/mat"
)

// State is a snapshot of parameter values keyed by parameter name. The
// training loops keep their best epoch's weights in one; the model file
// format lives in internal/core.
type State map[string]*mat.DenseF32

// CaptureState deep-copies the current values of params.
func CaptureState(params []*Param) State {
	s := make(State, len(params))
	for _, p := range params {
		if _, dup := s[p.Name]; dup {
			panic(fmt.Sprintf("nn: duplicate param name %q", p.Name))
		}
		s[p.Name] = p.Value.Clone()
	}
	return s
}

// CaptureStateInto copies the current values of params into dst, reusing
// dst's matrices when shapes match so repeated captures (best-state
// tracking every improved epoch) stop allocating. A nil dst allocates a
// fresh state. It returns dst.
func CaptureStateInto(dst State, params []*Param) State {
	if dst == nil {
		return CaptureState(params)
	}
	for _, p := range params {
		if v, ok := dst[p.Name]; ok && v.Rows == p.Value.Rows && v.Cols == p.Value.Cols {
			copy(v.Data, p.Value.Data)
			continue
		}
		dst[p.Name] = p.Value.Clone()
	}
	return dst
}

// RestoreState loads captured values back into params. Every parameter
// must be present in the state with a matching shape.
func RestoreState(params []*Param, s State) error {
	for _, p := range params {
		v, ok := s[p.Name]
		if !ok {
			return fmt.Errorf("nn: state missing param %q", p.Name)
		}
		if v.Rows != p.Value.Rows || v.Cols != p.Value.Cols {
			return fmt.Errorf("nn: state param %q shape %dx%d != %dx%d",
				p.Name, v.Rows, v.Cols, p.Value.Rows, p.Value.Cols)
		}
		copy(p.Value.Data, v.Data)
	}
	return nil
}
