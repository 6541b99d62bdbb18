package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/api"
)

// decodeFuzzSeeds adds a valid body, its truncations and a copy with
// one byte flipped to f.
func decodeFuzzSeeds(f *testing.F, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add(body[:len(body)-1])
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	f.Add([]byte(`{"job":"sort"} trailing`))
	f.Add([]byte{})
}

var fuzzProps = []api.Property{
	{Name: "dataset_size_mb", Value: "10000"},
	{Name: "node_type", Value: "m4.xlarge"},
}

// FuzzDecodeAllocate: any body decodes to an allocation of a named job
// or is refused with an error, never a panic.
func FuzzDecodeAllocate(f *testing.F) {
	decodeFuzzSeeds(f, api.AllocateRequest{
		Job: "sort", Env: "c3o", Essential: fuzzProps, Optional: fuzzProps[:1],
		MinScaleOut: 2, MaxScaleOut: 12, Step: 2, Candidates: []int{2, 4},
		DeadlineSec: 300, CostPerNodeHour: 0.4, SafetyMargin: 0.1,
		MinModelSamples: 3, Observations: []api.ObservationPoint{{ScaleOut: 4, RuntimeSec: 120}},
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		in, err := decodeAllocate(&requestScratch{body: body})
		if err == nil && in.key.Job == "" {
			t.Fatalf("decodeAllocate(%q) accepted a request without a job", body)
		}
	})
}

// FuzzDecodeObserve: any body decodes to an observation of a named job
// or is refused with an error, never a panic.
func FuzzDecodeObserve(f *testing.F) {
	decodeFuzzSeeds(f, api.ObserveRequest{
		PredictRequest: api.PredictRequest{Job: "sort", Env: "c3o", ScaleOut: 4, Essential: fuzzProps, Optional: fuzzProps[1:]},
		RuntimeSec:     120,
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		in, err := decodeObserve(&requestScratch{body: body})
		if err == nil && in.req.Key.Job == "" {
			t.Fatalf("decodeObserve(%q) accepted a request without a job", body)
		}
	})
}
