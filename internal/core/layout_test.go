package core

import (
	"strings"
	"testing"
	"unsafe"
)

// TestShardCacheLinesApart pins the memory layout a split training step
// relies on. The caller's shard accumulates gradients in the model while
// the helper's shard, on the replica, reads the same weights and
// accumulates its own gradients. No 64-byte cache line may hold both a
// gradient element and a weight element — else one core's gradient
// writes evict the weights the other is reading — and no line may hold
// gradient elements of both shards.
func TestShardCacheLinesApart(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := m.replica(1)
	const weight, grad0, grad1 = 1, 2, 4
	lines := map[uintptr]int{}
	owner := map[uintptr]string{}
	mark := func(name string, data []float32, kind int) {
		for i := range data {
			line := uintptr(unsafe.Pointer(&data[i])) / 64
			lines[line] |= kind
			if !strings.Contains(owner[line]+" ", " "+name+" ") {
				owner[line] += " " + name
			}
		}
	}
	for _, p := range m.Params() {
		mark(p.Name+".value", p.Value.Data, weight)
		mark(p.Name+".grad", p.Grad.Data, grad0)
	}
	for _, p := range r.Params() {
		mark(p.Name+".value", p.Value.Data, weight)
		mark(p.Name+".replica-grad", p.Grad.Data, grad1)
	}
	for line, kinds := range lines {
		if kinds&weight != 0 && kinds&(grad0|grad1) != 0 {
			t.Errorf("a cache line holds weights and gradients:%s", owner[line])
		}
		if kinds&grad0 != 0 && kinds&grad1 != 0 {
			t.Errorf("a cache line holds gradients of both shards:%s", owner[line])
		}
	}
}
