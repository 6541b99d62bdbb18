package freelist

import (
	"runtime"
	"slices"
	"sync"
	"testing"
)

// buf is a scratch object whose held bytes are its capacity.
type buf struct {
	b      []byte
	resets int
}

func (x *buf) Reset()     { x.b = x.b[:0]; x.resets++ }
func (x *buf) Bytes() int { return cap(x.b) }

func newBuf() *buf { return &buf{} }

// TestListIsBoundedLIFO: Get hands back the object put last, the list
// keeps at most GOMAXPROCS+1 idle and drops the rest, every Put resets,
// and the idle bytes are what the kept objects hold.
func TestListIsBoundedLIFO(t *testing.T) {
	l := New(newBuf, 0)
	bound := runtime.GOMAXPROCS(0) + 1
	xs := make([]*buf, bound+2)
	kept := 0
	for i := range xs {
		xs[i] = l.Get()
		xs[i].b = make([]byte, 10*(i+1))
		if i < bound {
			kept += 10 * (i + 1)
		}
	}
	for _, x := range xs {
		l.Put(x)
		if x.resets != 1 || len(x.b) != 0 {
			t.Fatalf("Put left %d bytes in the object after %d resets, want 0 after 1", len(x.b), x.resets)
		}
	}
	if l.Len() != bound || l.IdleBytes() != kept {
		t.Fatalf("%d idle objects of %d bytes, want %d of %d", l.Len(), l.IdleBytes(), bound, kept)
	}
	for i := bound - 1; i >= 0; i-- {
		if x := l.Get(); x != xs[i] {
			t.Fatalf("Get %d returned another object than the one put %d-th", bound-1-i, i)
		}
	}
	if l.IdleBytes() != 0 || l.Len() != 0 || slices.Contains(xs, l.Get()) {
		t.Fatal("an empty list handed out a dropped object or still counts bytes")
	}
}

// TestListByteBound: an object holding more than the bound is dropped
// on Put, one holding exactly the bound is kept, and what counts is what
// it holds after the reset.
func TestListByteBound(t *testing.T) {
	const bound = 64
	l := New(newBuf, bound)
	big := &buf{b: make([]byte, 0, bound+1)}
	l.Put(big)
	if l.Len() != 0 || l.IdleBytes() != 0 {
		t.Fatalf("an object of %d bytes was kept under a bound of %d", big.Bytes(), bound)
	}
	edge := &buf{b: make([]byte, bound)}
	l.Put(edge)
	if l.Len() != 1 || l.IdleBytes() != bound {
		t.Fatalf("an object of exactly the bound was not kept: %d idle, %d bytes", l.Len(), l.IdleBytes())
	}
	if l.Get() != edge {
		t.Fatal("Get did not return the object kept")
	}
	// No bound: any size is kept.
	free := New(newBuf, 0)
	free.Put(&buf{b: make([]byte, 1<<20)})
	if free.IdleBytes() != 1<<20 {
		t.Fatalf("a list without a byte bound holds %d bytes, want %d", free.IdleBytes(), 1<<20)
	}
}

// TestListConcurrent: goroutines getting, growing and putting objects at
// once never share one, and the list ends within its bounds with its
// byte count matching what it holds. Run under -race this also checks
// the accesses are ordered.
func TestListConcurrent(t *testing.T) {
	const workers, rounds = 8, 2000
	l := New(newBuf, 1<<10)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := l.Get()
				if len(x.b) != 0 {
					t.Errorf("worker %d got an object still holding %d bytes", w, len(x.b))
					return
				}
				// Mark the object as this worker's; another user would
				// overwrite the mark before it is checked.
				x.b = append(x.b, byte(w), byte(i))
				if i%97 == 0 {
					x.b = append(x.b, make([]byte, 2<<10)...) // over the bound: dropped
				}
				runtime.Gosched()
				if x.b[0] != byte(w) || x.b[1] != byte(i) {
					t.Errorf("worker %d: another goroutine wrote into its object", w)
					return
				}
				l.Put(x)
			}
		}(w)
	}
	wg.Wait()
	held := 0
	for n := l.Len(); n > 0; n-- {
		x := l.Get()
		if x.Bytes() > 1<<10 {
			t.Fatalf("the list kept an object of %d bytes over a bound of %d", x.Bytes(), 1<<10)
		}
		held += x.Bytes()
	}
	if l.IdleBytes() != 0 || held == 0 {
		t.Fatalf("after draining, %d idle bytes remain counted (the drained objects held %d)", l.IdleBytes(), held)
	}
}
