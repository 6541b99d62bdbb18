// Package freelist keeps idle scratch objects for reuse: working memory
// that a call borrows for its length and gives back on the way out.
//
// A List is a bounded LIFO. It holds at most GOMAXPROCS+1 idle objects
// (GOMAXPROCS as the list was made): as many calls as can run at once,
// plus one. Get hands out the object returned last, the one most
// recently grown to the shapes in use; Put rewinds the object and keeps
// it, unless the list is full or the object holds more than the list's
// byte bound, and then drops it to the garbage collector.
//
// It is not a sync.Pool. A pool is emptied by every second collection,
// so a process that collects often rebuilds its scratch as often; and a
// pool parks an object in the private slot of the P that put it, out of
// reach of a call on another P, which then builds a new one. A List
// keeps what it holds until it is taken, and any caller can take it.
package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Item is what a list needs of the objects it keeps.
type Item interface {
	// Reset empties the object for its next user and drops every
	// reference it holds into the last one's data.
	Reset()
	// Bytes reports the memory the object holds once reset: every buffer
	// it owns, by capacity.
	Bytes() int
}

// List is a bounded LIFO of idle objects. It is safe for concurrent use.
type List[T Item] struct {
	mu   sync.Mutex
	idle []idle[T] // cap is the count bound
	// maxBytes drops an object that holds more on Put; 0 keeps any.
	maxBytes int
	bytes    atomic.Int64
	fresh    func() T
}

// idle is a kept object with what it held when it was put, so Get need
// not measure it again.
type idle[T Item] struct {
	x     T
	bytes int
}

// New returns an empty list that makes its objects with fresh and keeps
// none holding more than maxBytes (0: no byte bound).
func New[T Item](fresh func() T, maxBytes int) *List[T] {
	return &List[T]{idle: make([]idle[T], 0, runtime.GOMAXPROCS(0)+1), maxBytes: maxBytes, fresh: fresh}
}

// Get returns the most recently returned idle object, or a new one.
func (l *List[T]) Get() T {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		e := l.idle[n-1]
		l.idle[n-1] = idle[T]{}
		l.idle = l.idle[:n-1]
		l.bytes.Add(-int64(e.bytes))
		l.mu.Unlock()
		return e.x
	}
	l.mu.Unlock()
	return l.fresh()
}

// Put resets x and keeps it for the next Get, or drops it when the list
// is full or x holds more than the byte bound. The caller must not use x
// afterwards.
func (l *List[T]) Put(x T) {
	x.Reset()
	b := x.Bytes()
	if l.maxBytes > 0 && b > l.maxBytes {
		return
	}
	l.mu.Lock()
	if len(l.idle) < cap(l.idle) {
		l.idle = append(l.idle, idle[T]{x, b})
		l.bytes.Add(int64(b))
	}
	l.mu.Unlock()
}

// Len reports how many objects are idle.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.idle)
}

// IdleBytes reports the memory the idle objects hold.
func (l *List[T]) IdleBytes() int { return int(l.bytes.Load()) }
