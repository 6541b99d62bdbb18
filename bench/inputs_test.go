package main

import (
	"bytes"
	"fmt"
	"testing"
)

// streamBytes renders the first n requests of every connection's stream
// of every workload, the way the driver would send them.
func streamBytes(in *inputs, conns, n int) []byte {
	var out bytes.Buffer
	dump := func(label string, st stream) {
		var buf []byte
		for i := 0; i < n; i++ {
			req := st(i, buf)
			if req.Ref < 0 {
				buf = req.Body
			}
			fmt.Fprintf(&out, "%s %d %s %s %d ", label, i, req.Op, req.Path, req.Ref)
			out.Write(req.Body)
			out.WriteByte('\n')
		}
	}
	for c := 0; c < conns; c++ {
		dump(fmt.Sprintf("hot/%d", c), in.hotStream(c, conns))
		dump(fmt.Sprintf("cold/%d", c), in.coldStream(c, conns))
	}
	dump("mixed", in.mixedStream())
	return out.Bytes()
}

// splitBytes renders the train-reuse work: targets, corpus size and
// every split.
func splitBytes(in *inputs) []byte {
	var out bytes.Buffer
	fmt.Fprintf(&out, "corpus %d\n", len(in.ReuseCorpus))
	for _, f := range in.ReuseFits {
		fmt.Fprintf(&out, "%s k=%d train=", f.Target.ID, f.K)
		for _, e := range f.Split.Train {
			fmt.Fprintf(&out, "(%d %v)", e.ScaleOut, e.RuntimeSec)
		}
		if e := f.Split.Interp; e != nil {
			fmt.Fprintf(&out, " interp=(%d %v)", e.ScaleOut, e.RuntimeSec)
		}
		if e := f.Split.Extra; e != nil {
			fmt.Fprintf(&out, " extra=(%d %v)", e.ScaleOut, e.RuntimeSec)
		}
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, other := generateInputs(7, allParts), generateInputs(7, allParts), generateInputs(8, allParts)
	if sa, sb := streamBytes(a, 2, 400), streamBytes(b, 2, 400); !bytes.Equal(sa, sb) {
		t.Error("the same seed produced different request streams")
	} else if bytes.Equal(sa, streamBytes(other, 2, 400)) {
		t.Error("different seeds produced the same request streams")
	}
	if pa, pb := splitBytes(a), splitBytes(b); !bytes.Equal(pa, pb) {
		t.Error("the same seed produced different split sets")
	} else if bytes.Equal(pa, splitBytes(other)) {
		t.Error("different seeds produced the same split sets")
	}
	if fmt.Sprint(a.ObsFactors) != fmt.Sprint(b.ObsFactors) {
		t.Error("the same seed produced different observation factors")
	}
}

func TestInputShapes(t *testing.T) {
	in := generateInputs(1, allParts)
	if len(in.Keys) != 8 || len(in.Hot) != hotQueries || len(in.Cold) != coldBatches || len(in.Alloc) != allocPool {
		t.Fatalf("got %d keys, %d hot queries, %d cold batches, %d allocations", len(in.Keys), len(in.Hot), len(in.Cold), len(in.Alloc))
	}
	if want := reuseTargets * len(reuseKs) * reuseSplits; len(in.ReuseFits) != want {
		t.Errorf("%d fits, want %d", len(in.ReuseFits), want)
	}

	// serve-cold must never find a query again before the LRU dropped it:
	// every item of the pool is distinct.
	seen := map[string]bool{}
	for _, batch := range in.ColdReqs {
		if len(batch) != batchItems {
			t.Fatalf("batch of %d items, want %d", len(batch), batchItems)
		}
		for _, r := range batch {
			k := fmt.Sprint(r.Job, r.Env, r.ScaleOut, r.Essential, r.Optional)
			if seen[k] {
				t.Fatalf("cold pool repeats %s", k)
			}
			seen[k] = true
		}
	}

	// The cold stream is four batches, then one allocation, with the
	// connections taking disjoint pool entries.
	ops := ""
	st := in.coldStream(0, 2)
	for n := 0; n < 10; n++ {
		ops += st(n, nil).Op[:1]
	}
	if ops != "bbbbabbbba" {
		t.Errorf("cold stream ops %q, want four batches per allocation", ops)
	}
	if a, b := in.coldStream(0, 2)(0, nil).Ref, in.coldStream(1, 2)(0, nil).Ref; a == b {
		t.Errorf("both connections start on batch %d", a)
	}

	// A novel query differs from its repeated twin only in the dataset
	// size, and no two novel queries are equal.
	mixed := in.mixedStream()
	first := append([]byte(nil), mixed(1, nil).Body...)
	second := append([]byte(nil), mixed(2*len(in.Hot)+1, nil).Body...)
	if bytes.Equal(first, second) {
		t.Error("two novel queries of the same key and scale-out are equal")
	}
	if bytes.Equal(first, in.Hot[0]) || len(first) < len(in.Hot[0])-8 {
		t.Errorf("novel query %s does not look like its repeated twin %s", first, in.Hot[0])
	}
}
