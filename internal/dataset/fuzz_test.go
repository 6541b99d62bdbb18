package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV holds ReadCSV, the decoder of trace files from outside
// the program, to one rule: arbitrary bytes either fail with an error or
// load a dataset that passes Validate and reads back equal after
// WriteCSV. It must never panic.
func FuzzReadCSV(f *testing.F) {
	// A small simulated trace: every 97th execution of Bell seed 1,
	// which spans several jobs and contexts.
	full := GenerateBell(SimConfig{Seed: 1})
	small := &Dataset{}
	for i := 0; i < len(full.Executions) && small.Len() < 16; i += 97 {
		small.Executions = append(small.Executions, full.Executions[i])
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, small); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	for _, n := range []int{0, 1, len(img) / 3, len(img) / 2, len(img) - 1} {
		f.Add(img[:n])
	}
	for _, at := range []int{3, len(img) / 4, len(img) / 2, len(img) - 2} {
		flipped := bytes.Clone(img)
		flipped[at] ^= 0x20
		f.Add(flipped)
	}
	// encoding/csv reads this quoted "x\r\r\ny" as "x\r\ny", which it
	// would then write back and read as "x\ny".
	f.Add([]byte(strings.Join(csvHeader, ",") + "\nc3o,grep,\"x\r\r\ny\",n,p,1,u,1,1,2,3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("ReadCSV returned a dataset that fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, ds); err != nil {
			t.Fatalf("WriteCSV of a loaded dataset: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-reading the written image: %v", err)
		}
		if !reflect.DeepEqual(ds, back) {
			t.Fatalf("dataset changed through WriteCSV and ReadCSV:\n%+v\nvs\n%+v", ds.Executions, back.Executions)
		}
	})
}
