package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
)

// aeNets builds the pre-training auto-encoder at DefaultConfig's
// widths, encoder g (40→8→4) and decoder h (4→8→40), SELU with alpha-
// dropout and no biases, from seed; the same seed builds the same nets
// with their dropout generators at the same point.
func aeNets(seed int64) (g, h *MLP) {
	nets, _ := BuildSlab(NewRand(seed),
		TwoLayerSpec{Name: "g", In: 40, Hidden: 8, Out: 4, ActHidden: SELU{}, ActOut: SELU{}, Dropout: 0.1, Init: InitLeCun},
		TwoLayerSpec{Name: "h", In: 4, Hidden: 8, Out: 40, ActHidden: SELU{}, ActOut: Tanh{}, Dropout: 0.1, Init: InitLeCun},
	)
	return nets[0], nets[1]
}

// aeData is a shard's auto-encoder input: u distinct property vectors,
// r occurrences of them and a gradient for their codes.
func aeData(seed int64, u, r int) (props *mat.DenseF32, rows []int32, dcodes *mat.DenseF32) {
	rng := NewRand(seed)
	props = randDense(rng.Rand, u, 40)
	rows = make([]int32, r)
	for i := range rows {
		rows[i] = int32(rng.Intn(u))
	}
	return props, rows, randDense(rng.Rand, r, 4)
}

// aeStep is the auto-encoder's share of a pre-training step: g's
// per-occurrence forward pass, the reconstruction term when recon is
// set, and g's backward pass. It returns the codes, the term's error,
// and the code gradient the term returned.
func aeStep(ws *mat.WorkspaceF32, g, h *MLP, props *mat.DenseF32, rows []int32, dcodes *mat.DenseF32, recon bool) (codes []float32, loss float64, rg []float32) {
	c := g.ForwardRows(ws, props, rows, true)
	codes = append([]float32(nil), c.Data...)
	var rgm *mat.DenseF32
	if recon {
		loss, rgm = h.ReconLossRows(ws, c, props, rows, 1.5)
		rg = append([]float32(nil), rgm.Data...)
	}
	g.BackwardRows(ws, dcodes, rgm)
	return codes, loss, rg
}

// sameBits reports the first element where a and b differ in their bits.
func sameBits(t *testing.T, what string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values fused, %d layered", what, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s[%d]: fused %v, layered %v", what, i, a[i], b[i])
		}
	}
}

// TestAERowsMatchLayered holds mat's fused auto-encoder passes to the
// layered calls they replace on the asm family, bit for bit: the codes,
// the reconstruction error and its code gradient, every weight gradient
// of g and h, and where the dropout generators stand after. The row
// counts leave every remainder of the row groups, from one row to a
// training shard's 224 and past it, each with and without the
// reconstruction term, twice in a row so the second pass runs on the
// first one's buffers.
func TestAERowsMatchLayered(t *testing.T) {
	if !mat.AERowsFused(8, 4) {
		t.Skip("the fused passes run on the asm family only")
	}
	for _, r := range []int{1, 2, 3, 5, 7, 56, 63, 70, 224, 231} {
		for _, recon := range []bool{false, true} {
			t.Run(fmt.Sprintf("rows=%d/recon=%v", r, recon), func(t *testing.T) {
				props, rows, dcodes := aeData(int64(r), min(r, 13), r)
				gf, hf := aeNets(int64(r))
				gl, hl := aeNets(int64(r))
				wsf, wsl := mat.NewWorkspaceF32(), mat.NewWorkspaceF32()
				for pass := range 2 {
					codesF, lossF, rgF := aeStep(wsf, gf, hf, props, rows, copyDense(dcodes), recon)
					if !gf.fused {
						t.Fatal("the fused forward pass did not run")
					}
					fuseAE = false
					codesL, lossL, rgL := aeStep(wsl, gl, hl, props, rows, copyDense(dcodes), recon)
					fuseAE = true
					if gl.fused {
						t.Fatal("the layered forward pass ran fused")
					}
					sameBits(t, fmt.Sprintf("pass %d codes", pass), codesF, codesL)
					sameBits(t, fmt.Sprintf("pass %d code gradient", pass), rgF, rgL)
					if math.Float64bits(lossF) != math.Float64bits(lossL) {
						t.Fatalf("pass %d error: fused %v, layered %v", pass, lossF, lossL)
					}
					pf, pl := append(gf.Params(), hf.Params()...), append(gl.Params(), hl.Params()...)
					for i := range pf {
						sameBits(t, fmt.Sprintf("pass %d %s gradient", pass, pf[i].Name), pf[i].Grad.Data, pl[i].Grad.Data)
					}
					for i, d := range []*AlphaDropout{gf.Drop, hf.Drop} {
						if a, b := d.Rng.Uint64(), []*MLP{gl, hl}[i].Drop.Rng.Uint64(); a != b {
							t.Fatalf("pass %d: the fused dropout generator drew %d next, the layered %d", pass, a, b)
						}
					}
					wsf.Reset()
					wsl.Reset()
				}
			})
		}
	}
}

func copyDense(m *mat.DenseF32) *mat.DenseF32 {
	return &mat.DenseF32{Rows: m.Rows, Cols: m.Cols, Data: append([]float32(nil), m.Data...)}
}

// BenchmarkAERows times the auto-encoder's share of one 224-row
// training shard's pass (aeStep with the reconstruction term, on 21
// distinct vectors), as mat's fused passes and as the layered calls.
func BenchmarkAERows(b *testing.B) {
	for _, arm := range []struct {
		name  string
		fused bool
	}{{"fused", true}, {"layered", false}} {
		b.Run(arm.name, func(b *testing.B) {
			defer func(v bool) { fuseAE = v }(fuseAE)
			fuseAE = arm.fused
			props, rows, dcodes := aeData(1, 21, 224)
			g, h := aeNets(1)
			ws := mat.NewWorkspaceF32()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Reset()
				c := g.ForwardRows(ws, props, rows, true)
				_, rg := h.ReconLossRows(ws, c, props, rows, 1)
				g.BackwardRows(ws, dcodes, rg)
			}
		})
	}
}
