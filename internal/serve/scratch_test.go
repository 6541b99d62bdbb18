package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
)

// coldBatchBody marshals a batch of items never-cached queries: every
// (batch, item) pair has its own dataset size, spread over four models.
func coldBatchBody(t testing.TB, batch, items int) []byte {
	t.Helper()
	keys := []ModelKey{{Job: "sort", Env: "c3o"}, {Job: "grep", Env: "c3o"}, {Job: "sgd", Env: "bell"}, {Job: "kmeans", Env: "c3o"}}
	in := api.BatchRequest{Requests: make([]api.PredictRequest, items)}
	for i := range in.Requests {
		r := wireRequest(2+2*(i%6), 4000+batch*items+i)
		r.Job, r.Env = keys[i%len(keys)].Job, keys[i%len(keys)].Env
		in.Requests[i] = r
	}
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return body
}

// postRecorded drives one POST through h without a socket.
func postRecorded(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestColdBatchAllocBudget pins what a cold 256-item batch costs the
// heap on its way through the handler: body read, decode, conversion,
// 256 never-cached predictions with their cache inserts, and the
// response. It measures 89 KB in 538 objects on linux/amd64 at
// GOMAXPROCS 2 with collection on, of which the cache, not yet full
// here, takes a key's storage per item (256 objects); fingerprints,
// grouping and the answers come from scratch on free lists, which no
// collection empties and no P keeps to itself. The object
// ceiling leaves a tenth of room. Under -race the standard library's own
// sync.Pools (the JSON encoder's, fmt's) drop a quarter of what they are
// given, which measured up to 139 KB in 553 objects; the byte ceiling
// covers that.
func TestColdBatchAllocBudget(t *testing.T) {
	const (
		items, warm, measured = 256, 4, 16
		maxBytes, maxObjects  = 160 << 10, 590
	)
	cl := &countingLoader{t: t}
	h := NewService(cl.load, Options{ResultCap: (warm + measured) * items}).Handler()
	bodies := make([][]byte, warm+measured)
	for b := range bodies {
		bodies[b] = coldBatchBody(t, b, items)
	}
	post := func(body []byte) {
		if rec := postRecorded(h, "/v1/predict/batch", body); rec.Code != http.StatusOK {
			t.Fatalf("batch answered %d: %.200s", rec.Code, rec.Body.Bytes())
		}
	}
	for _, body := range bodies[:warm] { // load the models, fill the lists
		post(body)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range bodies[warm:] {
		post(body)
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / measured
	objectsPer := (after.Mallocs - before.Mallocs) / measured
	t.Logf("cold %d-item batch: %d B, %d objects per request", items, bytesPer, objectsPer)
	if bytesPer > maxBytes || objectsPer > maxObjects {
		t.Fatalf("cold %d-item batch allocates %d B in %d objects per request, budget %d B in %d",
			items, bytesPer, objectsPer, maxBytes, maxObjects)
	}
}

// TestScratchCarriesNothingOver: a request decoded into a scratch that
// served a richer one before shows none of its predecessor's fields.
func TestScratchCarriesNothingOver(t *testing.T) {
	full := wireRequest(4, 10000)
	bare := api.PredictRequest{Job: "grep", ScaleOut: 2, Essential: []api.Property{{Name: "dataset_size_mb", Value: "77"}}}
	wantBare, err := ToRequest(bare)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(sc *requestScratch, v any) *httptest.ResponseRecorder {
		body, _ := json.Marshal(v)
		rec := httptest.NewRecorder()
		err := sc.readBody(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
		if err == nil {
			switch v.(type) {
			case api.PredictRequest:
				var req Request
				if req, err = sc.decodePredict(); err == nil {
					sc.live = append(sc.live, req)
				}
			case api.BatchRequest:
				err = sc.decodeBatch()
			}
		}
		if err != nil {
			e := toAPIError(err)
			api.WriteError(rec, statusOf(e.Code), e)
		}
		return rec
	}

	sc := acquireRequestScratch()
	defer sc.release()
	decode(sc, full)
	sc.Reset()
	decode(sc, bare)
	if len(sc.live) != 1 || !reflect.DeepEqual(sc.live[0], wantBare) {
		t.Fatalf("bare request after a full one decoded to %+v, want %+v", sc.live, wantBare)
	}

	// The same through a batch: three full items, then two bare ones and
	// a malformed one on the same scratch.
	sc.Reset()
	decode(sc, api.BatchRequest{Requests: []api.PredictRequest{full, full, full}})
	if len(sc.live) != 3 || len(sc.responses) != 3 {
		t.Fatalf("full batch: %d live, %d responses, want 3/3", len(sc.live), len(sc.responses))
	}
	sc.Reset()
	decode(sc, api.BatchRequest{Requests: []api.PredictRequest{bare, {Env: "no job"}, bare}})
	if !reflect.DeepEqual(sc.live, []Request{wantBare, wantBare}) || !reflect.DeepEqual(sc.liveIdx, []int{0, 2}) {
		t.Fatalf("bare batch after a full one: live %+v at %v, want two of %+v at [0 2]", sc.live, sc.liveIdx, wantBare)
	}
	for i, r := range sc.responses {
		if (r.Error != nil) != (i == 1) || r.RuntimeSec != 0 || r.Cached {
			t.Fatalf("staged response %d = %+v, want only item 1 answered (bad_request)", i, r)
		}
	}

	// A rejected body leaves an envelope and nothing live.
	sc.Reset()
	if rec := decode(sc, api.PredictRequest{Env: "no job"}); rec.Code != http.StatusBadRequest || len(sc.live) != 0 {
		t.Fatalf("request without job: status %d, %d live, want 400/0", rec.Code, len(sc.live))
	}
}

// TestEmptyBatchAnswer: reused staging must not turn the empty answer
// into "responses":null.
func TestEmptyBatchAnswer(t *testing.T) {
	cl := &countingLoader{t: t}
	h := NewService(cl.load, Options{}).Handler()
	for _, body := range []string{`{"requests":[]}`, `{}`, `{"requests":null}`} {
		rec := postRecorded(h, "/v1/predict/batch", []byte(body))
		if got := rec.Body.String(); rec.Code != http.StatusOK || got != "{\"responses\":[]}\n" {
			t.Fatalf("%s answered %d %q, want 200 {\"responses\":[]}", body, rec.Code, got)
		}
	}
}

// TestConcurrentBatchesDoNotAlias: batches decoded at the same time on
// reused scratches each get their own answers — the ones the service
// gives for the same queries called directly. Run under -race this also
// proves no two requests touch one arena.
func TestConcurrentBatchesDoNotAlias(t *testing.T) {
	const workers, rounds, items = 8, 6, 48
	cl := &countingLoader{t: t}
	h := NewService(cl.load, Options{}).Handler()
	ref := NewService(cl.load, Options{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Items carry optional properties in odd rounds only, so
				// a scratch alternates between the two shapes.
				body := coldBatchBody(t, w*rounds+round, items)
				var in api.BatchRequest
				if err := json.Unmarshal(body, &in); err != nil {
					t.Error(err)
					return
				}
				reqs := make([]Request, items)
				for i := range in.Requests {
					if round%2 == 0 {
						in.Requests[i].Optional = nil
					}
					reqs[i], _ = ToRequest(in.Requests[i])
				}
				body, _ = json.Marshal(in)
				rec := postRecorded(h, "/v1/predict/batch", body)
				var out api.BatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Responses) != items {
					t.Errorf("worker %d round %d: status %d, %d responses (err %v)", w, round, rec.Code, len(out.Responses), err)
					return
				}
				for i, want := range ref.PredictBatch(context.Background(), reqs) {
					if got := out.Responses[i]; got.Error != nil || want.Err != nil || got.RuntimeSec != want.RuntimeSec {
						t.Errorf("worker %d round %d item %d: handler answered %+v, reference %+v", w, round, i, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDecodeBodySizing: the body buffer follows what arrives, not what
// Content-Length claims, and a scratch that grew past the list's bound
// is not kept.
func TestDecodeBodySizing(t *testing.T) {
	sc := acquireRequestScratch()
	decode := func(r *http.Request) error {
		if err := sc.readBody(httptest.NewRecorder(), r); err != nil {
			return err
		}
		_, err := sc.decodePredict()
		return err
	}
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader([]byte(`{"job":"sort"}`)))
	r.ContentLength = MaxBodyBytes // a lie
	if err := decode(r); err != nil {
		t.Fatal("short body under a large Content-Length was refused")
	}
	if cap(sc.body) >= 2*maxIdleRequestScratch {
		t.Fatalf("body buffer grew to %d on the header's word alone", cap(sc.body))
	}
	big := []byte(fmt.Sprintf(`{"job":"sort","env":%q}`, bytes.Repeat([]byte("e"), 2*maxIdleRequestScratch)))
	if err := decode(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(big))); err != nil {
		t.Fatal("4 MiB body was refused")
	}
	if cap(sc.body) <= maxIdleRequestScratch {
		t.Fatalf("body buffer cap %d after a %d-byte body", cap(sc.body), len(big))
	}
	sc.release() // dropped: must not panic, must not be handed out again
	if next := acquireRequestScratch(); next == sc {
		t.Fatal("oversized scratch went back to the list")
	}
}

// benchShapedRequest is a query of the benchmark's shape: four essential
// and three optional properties, the dataset size setting it apart.
func benchShapedRequest(i int) api.PredictRequest {
	r := wireRequest(2+i%11, 2000+i)
	r.Optional = append(r.Optional, api.Property{Name: "job_name", Value: r.Job})
	return r
}

// TestScratchBoundCountsWhatItHolds: the list's byte bound weighs every
// buffer a scratch holds, not just its body. A body just under 1 MiB —
// one item of ~44k empty properties — grows the DTO and the property
// arena to over 3 MB more, and its scratch is dropped; the scratch of a
// 1024-item batch of the benchmark's shape, answered, is kept.
func TestScratchBoundCountsWhatItHolds(t *testing.T) {
	const empty = `{"name":"","value":""},`
	n := (1<<20 - 64) / len(empty)
	wide := []byte(`{"job":"sort","env":"c3o","scale_out":4,"essential":[` +
		strings.Repeat(empty, n-1) + strings.TrimSuffix(empty, ",") + `]}`)
	if len(wide) > 1<<20 {
		t.Fatalf("body is %d bytes, want under 1 MiB", len(wide))
	}
	in := api.BatchRequest{Requests: make([]api.PredictRequest, 1024)}
	for i := range in.Requests {
		in.Requests[i] = benchShapedRequest(i)
	}
	batch, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService((&countingLoader{t: t}).load, Options{})

	for _, tc := range []struct {
		name string
		body []byte
		kept bool
	}{{"1 MiB body of empty properties", wide, false}, {"1024-item batch", batch, true}} {
		sc := acquireRequestScratch()
		if err := sc.readBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(tc.body))); err != nil {
			t.Fatal(err)
		}
		if tc.kept {
			if err := sc.decodeBatch(); err != nil {
				t.Fatal(err)
			}
			if _, err := callBatch(svc, context.Background(), struct{}{}, sc, nil); err != nil {
				t.Fatal(err)
			}
		} else if _, err := sc.decodePredict(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d-byte body, the scratch holds %d bytes", tc.name, len(tc.body), sc.Bytes())
		sc.release()
		next := acquireRequestScratch()
		if kept := next == sc; kept != tc.kept {
			t.Errorf("%s: scratch of %d bytes kept = %v, want %v (bound %d)", tc.name, sc.Bytes(), kept, tc.kept, maxIdleRequestScratch)
		}
		next.release()
	}
}
