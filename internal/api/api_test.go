package api

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// roundTrip encodes v, decodes into a fresh value of the same type,
// and fails unless the result is deeply equal to the input.
func roundTrip(t *testing.T, v any) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := json.Unmarshal(blob, out.Interface()); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	if got := out.Elem().Interface(); !reflect.DeepEqual(got, v) {
		t.Fatalf("%T round trip:\n in  %+v\n out %+v\n json %s", v, v, got, blob)
	}
}

func TestDTORoundTrips(t *testing.T) {
	props := []Property{{Name: "dataset_size_mb", Value: "10000"}, {Name: "node_type", Value: "m4.xlarge"}}
	pr := PredictRequest{Job: "sort", Env: "c3o", ScaleOut: 4, Essential: props, Optional: []Property{{Name: "jvm", Value: "11"}}}

	roundTrip(t, pr)
	roundTrip(t, PredictResponse{RuntimeSec: 42.5, Cached: true})
	roundTrip(t, PredictResponse{Error: &Error{Code: CodeModelNotFound, Message: "no model"}})
	roundTrip(t, BatchRequest{Requests: []PredictRequest{pr, pr}})
	roundTrip(t, BatchResponse{
		Responses: []PredictResponse{{RuntimeSec: 1}, {Error: &Error{Code: CodeOverloaded, Message: "shard 2 overloaded"}}},
		Failed:    1,
	})
	roundTrip(t, ObserveRequest{PredictRequest: pr, RuntimeSec: 99.5})
	roundTrip(t, ObserveResponse{Accepted: true})
	roundTrip(t, AllocateRequest{
		Job: "sort", Env: "c3o", Essential: props,
		MinScaleOut: 2, MaxScaleOut: 16, Step: 2, Candidates: []int{2, 4, 8},
		DeadlineSec: 300, CostPerNodeHour: 0.25, SafetyMargin: 0.1,
		MinModelSamples: 5,
		Observations:    []ObservationPoint{{ScaleOut: 2, RuntimeSec: 400}},
	})
	roundTrip(t, AllocateResponse{
		ScaleOut: 8, PredictedSec: 250, Cost: 0.56, Feasible: true, Source: "model",
		MarginSec: 50, MarginFrac: 0.16,
		Curve: []CurvePoint{{ScaleOut: 8, PredictedSec: 250, SmoothedSec: 251, Cost: 0.56, MeetsSLO: true}},
	})
	roundTrip(t, Stats{
		SchemaVersion: StatsSchemaVersion,
		Requests:      10, Calls: 9, ResultHits: 5, ResultMisses: 4, ResultCacheLen: 3,
		MeanLatencyUsec: 120.5, ModelHits: 8, ModelMisses: 1, ModelLoads: 1, ModelSwaps: 2,
		Alloc:     AllocStats{Requests: 2, MeanLatencyUsec: 500},
		Lifecycle: &LifecycleStats{Observations: 7, Finetunes: 1, Swaps: 1},
		Store:     &StoreStats{WALAppends: 7, WALSegments: 1, WALActiveSeq: 3},
		LoadCtl:   &LoadCtlStats{RateLimited: 1, Admitted: 9, MeanQueueWaitUsec: 10},
	})
	roundTrip(t, ClusterStats{
		SchemaVersion: StatsSchemaVersion,
		Shards:        []ShardStats{{ID: 0, Stats: Stats{SchemaVersion: StatsSchemaVersion, Requests: 1}}, {ID: 1, Stats: Stats{SchemaVersion: StatsSchemaVersion}}},
		Router:        RouterStats{Requests: 3, BatchFanouts: 1, PartialFailures: 1},
	})
	roundTrip(t, TopologyResponse{
		SchemaVersion: StatsSchemaVersion,
		VirtualNodes:  64,
		Shards: []ShardInfo{
			{ID: 0, Models: []ModelVersion{{Job: "sort", Env: "c3o", Version: 3}}},
			{ID: 1},
		},
	})
	roundTrip(t, Stats{
		SchemaVersion: StatsSchemaVersion,
		Obs: &ObsStats{
			TracesSampled: 12, TracesFinished: 12, MetricSeries: 40,
			LatencyP50Usec: 110, LatencyP99Usec: 900, LatencyP999Usec: 2100,
		},
	})
	roundTrip(t, SlowTracesResponse{
		SchemaVersion: StatsSchemaVersion,
		Traces: []TraceSummary{{
			TraceID: "a1b2c3", AgeMs: 1200, WallUsec: 5400,
			Spans: []SpanSummary{
				{Name: "decode", Shard: -1, StartUsec: 0, DurUsec: 12},
				{Name: "predict", Shard: 2, StartUsec: 40, DurUsec: 5300},
			},
		}},
	})
	roundTrip(t, Error{
		Code: CodeDeadlineExceeded, Message: "budget expired queued",
		TraceID: "a1b2c3",
		Spans:   []SpanSummary{{Name: "gate_wait", Shard: -1, DurUsec: 9000}},
	})
}

// TestEnvelopeShape pins the exact JSON contract of the error envelope:
// {"error":{"code","message","retry_after_ms"}}.
func TestEnvelopeShape(t *testing.T) {
	w := httptest.NewRecorder()
	WriteError(w, 429, Errorf(CodeRateLimited, "client rate limit exceeded").WithRetryAfter(1500*time.Millisecond))

	if w.Code != 429 {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q (1500ms ceiled to seconds)", got, "2")
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var raw map[string]map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	e, ok := raw["error"]
	if !ok {
		t.Fatalf("body missing top-level \"error\": %s", w.Body.String())
	}
	if e["code"] != CodeRateLimited {
		t.Fatalf("code = %v, want %q", e["code"], CodeRateLimited)
	}
	if e["message"] != "client rate limit exceeded" {
		t.Fatalf("message = %v", e["message"])
	}
	if e["retry_after_ms"] != float64(1500) {
		t.Fatalf("retry_after_ms = %v, want 1500", e["retry_after_ms"])
	}
}

// TestStatsFieldNamingIsSnakeCase guards the satellite fix: every JSON
// key in the stats schema is snake_case (lowercase with underscores),
// no lowercase-concatenated survivors like "loadctl".
func TestStatsFieldNamingIsSnakeCase(t *testing.T) {
	blob, err := json.Marshal(Stats{
		SchemaVersion: StatsSchemaVersion,
		Lifecycle:     &LifecycleStats{},
		Store:         &StoreStats{},
		LoadCtl:       &LoadCtlStats{},
	})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if _, bad := m["loadctl"]; bad {
		t.Fatal("stats still expose the pre-v2 \"loadctl\" key")
	}
	if _, ok := m["load_ctl"]; !ok {
		t.Fatal("stats missing \"load_ctl\" block")
	}
	if v, ok := m["schema_version"]; !ok || v != float64(StatsSchemaVersion) {
		t.Fatalf("schema_version = %v, want %d", v, StatsSchemaVersion)
	}
}

func TestErrorInterface(t *testing.T) {
	e := Errorf(CodeBadRequest, "missing job")
	if got := e.Error(); got != "bad_request: missing job" {
		t.Fatalf("Error() = %q", got)
	}
	var nilErr *Error
	if nilErr.Error() != "<nil>" {
		t.Fatal("nil *Error must not panic")
	}
}
