package mat

import (
	"math/rand"
	"testing"
)

// arenaOps is the workspace as the model check drives it.
type arenaOps struct {
	get   func(rows, cols int, zeroed bool) []float32
	reset func()
	held  func() int // elements
}

func workspaceF32Ops(w *WorkspaceF32) arenaOps {
	return arenaOps{
		get: func(rows, cols int, zeroed bool) []float32 {
			var m *DenseF32
			if zeroed {
				m = w.Get(rows, cols)
			} else {
				m = w.GetRaw(rows, cols)
			}
			if m.Rows != rows || m.Cols != cols {
				panic("shape")
			}
			return m.Data
		},
		reset: w.Reset, held: func() int { return w.Bytes() / 4 },
	}
}

// TestWorkspaceArenaModel is a seeded model check of the arena over
// random rounds of Get/GetRaw/Reset whose sizes keep outgrowing the slab,
// so rounds overflow mid-way, with 0xn and nx0 shapes among them. After
// every Get: the matrix has cap == len, a Get is zeroed although the
// arena's storage is dirty, and the arena holds at most 1.25x its largest
// round plus the chunk the round has open; at the end of every round no
// live matrix was overwritten by another (each carries its own stamp).
// Then a warm round no larger than the largest, in any order, allocates
// nothing.
func TestWorkspaceArenaModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkArenaModel(t, seed, workspaceF32Ops(NewWorkspaceF32()))
	}
}

func checkArenaModel(t *testing.T, seed int64, a arenaOps) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type shape struct{ rows, cols int }
	var largest []shape // the shapes of the largest round
	high := 0           // its element count
	for r := 0; r < 300; r++ {
		a.reset()
		if h := a.held(); h > high+high/4 {
			t.Fatalf("seed %d round %d: %d elements held after Reset, largest round %d", seed, r, h, high)
		}
		maxDim := 2 + r/8
		n := rng.Intn(10)
		if r%37 == 0 {
			n = 1 // a round of one big matrix
			maxDim *= 4
		}
		var shapes []shape
		var live [][]float32
		round := 0
		for i := 0; i < n; i++ {
			s := shape{rng.Intn(maxDim), rng.Intn(maxDim)}
			if rng.Intn(6) == 0 {
				s.rows = 0
			}
			zeroed := rng.Intn(2) == 0
			d := a.get(s.rows, s.cols, zeroed)
			if len(d) != s.rows*s.cols || cap(d) != len(d) {
				t.Fatalf("seed %d round %d: a %dx%d matrix has len %d, cap %d", seed, r, s.rows, s.cols, len(d), cap(d))
			}
			for j, v := range d {
				if zeroed && v != 0 {
					t.Fatalf("seed %d round %d: Get left %v at %d", seed, r, v, j)
				}
				d[j] = float32(r*16 + i + 1)
			}
			live = append(live, d)
			shapes = append(shapes, s)
			round += len(d)
			// The slab is at most 1.25x the largest round; an open chunk is
			// at most max(its first matrix, the slab).
			if slab := high + high/4; a.held() > slab+max(round, slab) {
				t.Fatalf("seed %d round %d: %d elements held, largest round %d, this one %d so far", seed, r, a.held(), high, round)
			}
		}
		for i, d := range live {
			for _, v := range d {
				if v != float32(r*16+i+1) {
					t.Fatalf("seed %d round %d: matrix %d was overwritten by a live neighbour", seed, r, i)
				}
			}
		}
		if round > high {
			high, largest = round, shapes
		}
	}

	// Warm rounds: the largest one shuffled, and a random part of it.
	warm := func(shapes []shape) {
		a.reset()
		for _, s := range shapes {
			a.get(s.rows, s.cols, true)
		}
	}
	for k := 0; k < 4; k++ {
		shapes := append([]shape(nil), largest...)
		rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
		shapes = shapes[:len(shapes)-k*len(shapes)/4]
		if allocs := testing.AllocsPerRun(10, func() { warm(shapes) }); allocs != 0 {
			t.Fatalf("seed %d: a warm round of %d matrices allocates %v times", seed, len(shapes), allocs)
		}
	}
}
