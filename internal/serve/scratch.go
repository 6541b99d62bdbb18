package serve

import (
	"errors"
	"io"
	"net/http"
	"slices"
	"unsafe"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/freelist"
)

// requestScratch is the working memory of one POST request: the body
// buffer and, for the two predict routes, the decoded DTOs, the
// converted requests and the batch staging. It comes from a free list
// and goes back once the response is written, so a steady stream of
// requests reuses one set of buffers instead of allocating a body, a
// DTO tree and a slice pair per item each time.
//
// Everything reachable from a scratch is valid until release; strings
// are copies, never views of the body buffer, so they may outlive it
// (the encoder memo keeps some).
type requestScratch struct {
	body []byte

	one   api.PredictRequest
	batch api.BatchRequest
	// props is the flat arena the Essential and Optional slices of the
	// converted requests are carved from.
	props []encoding.Property

	// After decodeBatch: live is the well-formed subset of the batch,
	// liveIdx the batch position of each, and responses one entry per
	// item with the malformed ones already answered.
	live      []Request
	liveIdx   []int
	responses []api.PredictResponse
	// answers is the storage the backend answers live into.
	answers []Response
}

// maxIdleRequestScratch is the most a request scratch may hold and still
// go back to its list: one that grew for a giant body or batch is
// dropped instead of pinning that memory. A 1024-item batch of the
// benchmark's shape holds about 1.5 MB.
const maxIdleRequestScratch = 2 << 20

var requestScratches = freelist.New(func() *requestScratch {
	// Never nil, so an empty batch is answered "responses":[].
	return &requestScratch{responses: []api.PredictResponse{}}
}, maxIdleRequestScratch)

// IdleRequestScratchBytes reports what the scratch idle on the serving
// tier's free lists of this package holds: request and batch scratch
// and allocation engines.
func IdleRequestScratchBytes() int {
	return requestScratches.IdleBytes() + batchScratches.IdleBytes() + engines.IdleBytes()
}

// acquireRequestScratch takes a scratch from the list; the caller owes
// it one release, after the response is written.
func acquireRequestScratch() *requestScratch { return requestScratches.Get() }

// release returns the scratch to the list, which drops it if it holds
// more than maxIdleRequestScratch.
func (sc *requestScratch) release() { requestScratches.Put(sc) }

// Reset empties the flat staging, zeroing it so idle memory pins
// neither the previous request's strings nor its error values. The DTOs
// keep theirs on purpose: the next decode reuses the ones that repeat
// and overwrites the rest.
func (sc *requestScratch) Reset() {
	clear(sc.props)
	sc.props = sc.props[:0]
	clear(sc.live)
	sc.live = sc.live[:0]
	sc.liveIdx = sc.liveIdx[:0]
	clear(sc.responses)
	sc.responses = sc.responses[:0]
	clear(sc.answers)
	sc.answers = sc.answers[:0]
}

// Bytes reports what the scratch holds: every buffer by capacity, and
// the DTOs with the strings they keep, to the end of every slice.
func (sc *requestScratch) Bytes() int {
	n := cap(sc.body) + dtoBytes(&sc.one) +
		cap(sc.props)*int(unsafe.Sizeof(encoding.Property{})) +
		cap(sc.live)*int(unsafe.Sizeof(Request{})) +
		cap(sc.liveIdx)*int(unsafe.Sizeof(int(0))) +
		cap(sc.responses)*int(unsafe.Sizeof(api.PredictResponse{})) +
		cap(sc.answers)*int(unsafe.Sizeof(Response{}))
	reqs := sc.batch.Requests[:cap(sc.batch.Requests)]
	n += len(reqs) * int(unsafe.Sizeof(api.PredictRequest{}))
	for i := range reqs {
		n += dtoBytes(&reqs[i])
	}
	return n
}

// dtoBytes reports what a decoded request keeps beyond its own struct:
// its strings and its property slices with theirs.
func dtoBytes(r *api.PredictRequest) int {
	n := len(r.Job) + len(r.Env)
	for _, ps := range [2][]api.Property{r.Essential, r.Optional} {
		ps = ps[:cap(ps)]
		n += len(ps) * int(unsafe.Sizeof(api.Property{}))
		for _, p := range ps {
			n += len(p.Name) + len(p.Value)
		}
	}
	return n
}

// readBody reads the request body, bounded by MaxBodyBytes, into the
// scratch.
func (sc *requestScratch) readBody(w http.ResponseWriter, r *http.Request) error {
	// One spare byte lets the read that delivers the last of the body
	// also find room to report EOF. Content-Length is the client's
	// claim: it sizes the buffer only up to what the list would keep,
	// anything larger has to actually arrive first.
	want := 512
	if n := r.ContentLength; n > 0 {
		want = int(min(n, maxIdleRequestScratch)) + 1
	}
	body := slices.Grow(sc.body[:0], want)
	rd := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	for {
		if len(body) == cap(body) {
			body = slices.Grow(body, 1)
		}
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err != nil {
			sc.body = body
			if err == io.EOF {
				return nil
			}
			return decodeError(err)
		}
	}
}

// decodeError types the failure to read or decode a body:
// payload_too_large when it exceeded MaxBodyBytes, bad_request
// otherwise. Decode errors are reported by kind only; raw body contents
// never echo back to the client.
func decodeError(err error) *api.Error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return api.Errorf(api.CodePayloadTooLarge, "serve: request body exceeds %d bytes", tooLarge.Limit)
	}
	return api.Errorf(api.CodeBadRequest, "serve: decoding request: malformed JSON body")
}

// decodePredict decodes and converts the body of POST /v1/predict. The
// request's property slices live in the scratch.
func (sc *requestScratch) decodePredict() (Request, error) {
	if err := api.DecodePredictRequest(sc.body, &sc.one); err != nil {
		return Request{}, decodeError(err)
	}
	return sc.convert(&sc.one)
}

// decodeBatch decodes and converts the body of POST /v1/predict/batch:
// live is then what to predict, and batchResponse merges the answers. A
// malformed item is answered in place and does not fail the batch; a
// malformed body, or more than MaxBatchRequests items, fails it.
func (sc *requestScratch) decodeBatch() error {
	if err := api.DecodeBatchRequest(sc.body, &sc.batch); err != nil {
		return decodeError(err)
	}
	items := sc.batch.Requests
	if len(items) > MaxBatchRequests {
		return api.Errorf(api.CodePayloadTooLarge, "batch of %d requests exceeds limit %d", len(items), MaxBatchRequests)
	}
	// reset left every element zero.
	sc.responses = slices.Grow(sc.responses, len(items))[:len(items)]
	for i := range items {
		req, err := sc.convert(&items[i])
		if err != nil {
			sc.responses[i].Error = toAPIError(err)
			continue
		}
		sc.live = append(sc.live, req)
		sc.liveIdx = append(sc.liveIdx, i)
	}
	return nil
}

// batchResponse merges the answers to live back into input order and
// returns the wire response, which aliases the scratch.
func (sc *requestScratch) batchResponse(answers []Response) api.BatchResponse {
	for j, a := range answers {
		sc.responses[sc.liveIdx[j]] = toAPIResponse(a)
	}
	resp := api.BatchResponse{Responses: sc.responses}
	for i := range resp.Responses {
		if resp.Responses[i].Error != nil {
			resp.Failed++
		}
	}
	return resp
}

var errMissingJob = errors.New("serve: request missing job")

// convert turns the wire form of a prediction request into the
// service's native form, validating required fields. The property
// slices are carved from the arena, capacity-limited so that an append
// to one cannot reach its neighbour.
func (sc *requestScratch) convert(in *api.PredictRequest) (Request, error) {
	if in.Job == "" {
		return Request{}, errMissingJob
	}
	sc.props = slices.Grow(sc.props, len(in.Essential)+len(in.Optional))
	q := core.Query{ScaleOut: in.ScaleOut}
	q.Essential = sc.carve(in.Essential, false)
	q.Optional = sc.carve(in.Optional, true)
	return Request{Key: ModelKey{Job: in.Job, Env: in.Env}, Query: q}, nil
}

func (sc *requestScratch) carve(in []api.Property, optional bool) []encoding.Property {
	if len(in) == 0 {
		return nil
	}
	start := len(sc.props)
	for _, p := range in {
		sc.props = append(sc.props, encoding.Property{Name: p.Name, Value: p.Value, Optional: optional})
	}
	return sc.props[start:len(sc.props):len(sc.props)]
}
