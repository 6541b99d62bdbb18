package api

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// benchPredictBody is one predict body the way every client of this
// repository writes it (json.Marshal of the DTO).
const benchPredictBody = `{"job":"sort","env":"c3o","scale_out":8,` +
	`"essential":[{"name":"dataset_size_mb","value":"19353"},{"name":"dataset_characteristics","value":"uniform"},` +
	`{"name":"job_parameters","value":"--iterations 100"},{"name":"node_type","value":"m4.2xlarge"}],` +
	`"optional":[{"name":"memory_mb","value":"32768"},{"name":"cpu_cores","value":"8"}]}`

func benchPredictRequest() PredictRequest {
	return PredictRequest{
		Job: "sort", Env: "c3o", ScaleOut: 8,
		Essential: []Property{
			{Name: "dataset_size_mb", Value: "19353"},
			{Name: "dataset_characteristics", Value: "uniform"},
			{Name: "job_parameters", Value: "--iterations 100"},
			{Name: "node_type", Value: "m4.2xlarge"},
		},
		Optional: []Property{{Name: "memory_mb", Value: "32768"}, {Name: "cpu_cores", Value: "8"}},
	}
}

func benchBatchBody(items int) string {
	reqs := make([]string, items)
	for i := range reqs {
		reqs[i] = strings.Replace(benchPredictBody, "19353", fmt.Sprint(2000+7*i), 1)
	}
	return `{"requests":[` + strings.Join(reqs, ",") + `]}`
}

// int64Wide: scale_out literals past 32 bits are accepted only where int
// is 64 bits wide. The variable one keeps their expected values out of
// constant arithmetic, which would not compile on a 32-bit GOARCH.
var (
	int64Wide       = strconv.IntSize == 64
	one       int64 = 1
)

// predictVectors are reference bodies with the DTO each must decode to;
// ok false marks a body that must be refused. The expectations were
// written by hand from the encoding/json rules, not produced by either
// decoder.
var predictVectors = []struct {
	name string
	body string
	want PredictRequest
	ok   bool
}{
	{"bench shaped", benchPredictBody, benchPredictRequest(), true},
	{"empty object", `{}`, PredictRequest{}, true},
	{"whitespace everywhere", " \t\r\n{ \"job\" : \"a\" , \"scale_out\" : -3 , \"essential\" : [ ] } \n",
		PredictRequest{Job: "a", ScaleOut: -3, Essential: []Property{}}, true},
	{"empty and partial properties", `{"essential":[{},{"value":"v"}],"optional":[{"name":"n"}]}`,
		PredictRequest{Essential: []Property{{}, {Value: "v"}}, Optional: []Property{{Name: "n"}}}, true},
	{"multi-byte text", `{"job":"grün","env":"日本"}`, PredictRequest{Job: "grün", Env: "日本"}, true},
	{"minus zero", `{"scale_out":-0}`, PredictRequest{}, true},
	{"largest int32", `{"scale_out":2147483647}`, PredictRequest{ScaleOut: math.MaxInt32}, true},
	{"smallest int32", `{"scale_out":-2147483648}`, PredictRequest{ScaleOut: math.MinInt32}, true},
	// What a 32-bit int cannot hold is refused there, as encoding/json does.
	{"past int32", `{"scale_out":2147483648}`, PredictRequest{ScaleOut: int(int64(math.MaxInt32) + one)}, int64Wide},
	{"eighteen digits", `{"scale_out":999999999999999999}`, PredictRequest{ScaleOut: int(999999999999999999 * one)}, int64Wide},
	{"nineteen digits", `{"scale_out":9223372036854775807}`, PredictRequest{ScaleOut: int(math.MaxInt64 * one)}, int64Wide},
	{"escapes", `{"job":"a\"b\\c\/d\né"}`, PredictRequest{Job: "a\"b\\c/d\né"}, true},
	{"surrogate pair", `{"job":"😀"}`, PredictRequest{Job: "😀"}, true},
	{"lone surrogate", `{"job":"\ud83d"}`, PredictRequest{Job: "�"}, true},
	{"invalid utf-8", "{\"job\":\"a\xffb\"}", PredictRequest{Job: "a�b"}, true},
	{"null fields", `{"job":null,"scale_out":null,"essential":null}`, PredictRequest{}, true},
	{"null document", `null`, PredictRequest{}, true},
	{"null property", `{"essential":[null,{"name":"n"}]}`, PredictRequest{Essential: []Property{{}, {Name: "n"}}}, true},
	{"case-variant key", `{"JOB":"a","Scale_Out":2}`, PredictRequest{Job: "a", ScaleOut: 2}, true},
	{"duplicate key last wins", `{"job":"a","job":"b","scale_out":1,"scale_out":2}`, PredictRequest{Job: "b", ScaleOut: 2}, true},
	// encoding/json decodes a repeated array over the elements of the
	// first one without zeroing them: the reason duplicates are its job.
	{"duplicate array merges elements", `{"essential":[{"name":"a","value":"b"},{"name":"x"}],"essential":[{"name":"c"}]}`,
		PredictRequest{Essential: []Property{{Name: "c", Value: "b"}}}, true},
	{"unknown fields ignored", `{"job":"a","extra":{"deep":[1,2,{"x":null}]},"n":1.5e3,"b":true}`, PredictRequest{Job: "a"}, true},
	{"unknown property field", `{"optional":[{"name":"n","unit":"mb"}]}`, PredictRequest{Optional: []Property{{Name: "n"}}}, true},

	{"empty", ``, PredictRequest{}, false},
	{"truncated", `{"job":"a"`, PredictRequest{}, false},
	{"trailing comma", `{"job":"a",}`, PredictRequest{}, false},
	{"trailing value", `{"job":"a"}{"job":"b"}`, PredictRequest{}, false},
	{"trailing junk", `{"job":"a"} junk`, PredictRequest{}, false},
	{"trailing brace", `{"job":"a"}}`, PredictRequest{}, false},
	{"array document", `[]`, PredictRequest{}, false},
	{"string for int", `{"scale_out":"4"}`, PredictRequest{}, false},
	{"fractional scale-out", `{"scale_out":4.0}`, PredictRequest{}, false},
	{"exponent scale-out", `{"scale_out":1e2}`, PredictRequest{}, false},
	{"overflowing scale-out", `{"scale_out":9223372036854775808}`, PredictRequest{}, false},
	{"leading zero", `{"scale_out":04}`, PredictRequest{}, false},
	{"bare minus", `{"scale_out":-}`, PredictRequest{}, false},
	{"number for string", `{"job":5}`, PredictRequest{}, false},
	{"object for array", `{"essential":{}}`, PredictRequest{}, false},
	{"string for property", `{"essential":["x"]}`, PredictRequest{}, false},
	{"control character", "{\"job\":\"a\nb\"}", PredictRequest{}, false},
	{"bad escape", `{"job":"\x"}`, PredictRequest{}, false},
	{"byte order mark", "\xef\xbb\xbf{}", PredictRequest{}, false},
}

// TestDecodePredictRequestVectors holds the decoder, and encoding/json
// beside it, to the hand-written reference table.
func TestDecodePredictRequestVectors(t *testing.T) {
	for _, v := range predictVectors {
		var viaJSON PredictRequest
		if err := json.Unmarshal([]byte(v.body), &viaJSON); (err == nil) != v.ok {
			t.Errorf("%s: json.Unmarshal err = %v, table says ok=%v", v.name, err, v.ok)
		} else if v.ok && !reflect.DeepEqual(viaJSON, v.want) {
			t.Errorf("%s: json.Unmarshal = %+v, table says %+v", v.name, viaJSON, v.want)
		}
		// A destination that held a full request before must end up the
		// same as a fresh one.
		for _, dst := range []*PredictRequest{{}, dirtyPredictRequest(t)} {
			err := DecodePredictRequest([]byte(v.body), dst)
			if (err == nil) != v.ok {
				t.Errorf("%s: DecodePredictRequest err = %v, want ok=%v", v.name, err, v.ok)
			} else if v.ok && !reflect.DeepEqual(*dst, v.want) {
				t.Errorf("%s: DecodePredictRequest = %+v, want %+v", v.name, *dst, v.want)
			}
		}
	}
}

func TestDecodeBatchRequestVectors(t *testing.T) {
	one := benchPredictRequest()
	for _, v := range []struct {
		name string
		body string
		want BatchRequest
		ok   bool
	}{
		{"bench shaped", `{"requests":[` + benchPredictBody + `,` + benchPredictBody + `]}`,
			BatchRequest{Requests: []PredictRequest{one, one}}, true},
		{"empty object", `{}`, BatchRequest{}, true},
		{"empty batch", `{"requests":[]}`, BatchRequest{Requests: []PredictRequest{}}, true},
		{"empty items", ` { "requests" : [ { } , {"job":"a"} ] } `, BatchRequest{Requests: []PredictRequest{{}, {Job: "a"}}}, true},
		{"null batch", `{"requests":null}`, BatchRequest{}, true},
		{"null item", `{"requests":[null,{"job":"a"}]}`, BatchRequest{Requests: []PredictRequest{{}, {Job: "a"}}}, true},
		{"case-variant key", `{"Requests":[{"job":"a"}]}`, BatchRequest{Requests: []PredictRequest{{Job: "a"}}}, true},
		{"duplicate key merges items", `{"requests":[{"job":"a"},{"job":"b"}],"requests":[{"env":"e"}]}`,
			BatchRequest{Requests: []PredictRequest{{Job: "a", Env: "e"}}}, true},
		{"unknown field", `{"requests":[{"job":"a"}],"trace":true}`, BatchRequest{Requests: []PredictRequest{{Job: "a"}}}, true},

		{"trailing value", `{"requests":[]}{"requests":[]}`, BatchRequest{}, false},
		{"trailing junk", `{"requests":[]} x`, BatchRequest{}, false},
		{"trailing comma", `{"requests":[{"job":"a"},]}`, BatchRequest{}, false},
		{"object for array", `{"requests":{}}`, BatchRequest{}, false},
		{"number item", `{"requests":[1]}`, BatchRequest{}, false},
		{"truncated", `{"requests":[{"job":"a"}`, BatchRequest{}, false},
	} {
		var viaJSON BatchRequest
		if err := json.Unmarshal([]byte(v.body), &viaJSON); (err == nil) != v.ok {
			t.Errorf("%s: json.Unmarshal err = %v, table says ok=%v", v.name, err, v.ok)
		} else if v.ok && !reflect.DeepEqual(viaJSON, v.want) {
			t.Errorf("%s: json.Unmarshal = %+v, table says %+v", v.name, viaJSON, v.want)
		}
		for _, dst := range []*BatchRequest{{}, dirtyBatchRequest(t)} {
			err := DecodeBatchRequest([]byte(v.body), dst)
			if (err == nil) != v.ok {
				t.Errorf("%s: DecodeBatchRequest err = %v, want ok=%v", v.name, err, v.ok)
			} else if v.ok && !reflect.DeepEqual(*dst, v.want) {
				t.Errorf("%s: DecodeBatchRequest = %+v, want %+v", v.name, *dst, v.want)
			}
		}
	}
}

// dirtyPredictRequest is a destination that already went through a
// decode of a request with every field set, the state a pooled DTO is
// in when the next body arrives.
func dirtyPredictRequest(t testing.TB) *PredictRequest {
	t.Helper()
	var dst PredictRequest
	if err := DecodePredictRequest([]byte(benchPredictBody), &dst); err != nil {
		t.Fatalf("decoding the bench-shaped body: %v", err)
	}
	return &dst
}

func dirtyBatchRequest(t testing.TB) *BatchRequest {
	t.Helper()
	var dst BatchRequest
	if err := DecodeBatchRequest([]byte(benchBatchBody(3)), &dst); err != nil {
		t.Fatalf("decoding the bench-shaped batch: %v", err)
	}
	return &dst
}

// TestDecodeFastSubset: the bodies the benchmark and the CLI send stay
// inside the scanner (no second parse by encoding/json), and decoding a
// body the destination already holds allocates nothing.
func TestDecodeFastSubset(t *testing.T) {
	var one PredictRequest
	if s := (scanner{data: []byte(benchPredictBody)}); !s.predictRequest(&one) || !s.end() {
		t.Fatalf("scanner left the fast subset at byte %d of the bench-shaped predict body", s.i)
	}
	if want := benchPredictRequest(); !reflect.DeepEqual(one, want) {
		t.Fatalf("scanner decoded %+v, want %+v", one, want)
	}
	body := []byte(benchBatchBody(256))
	var batch BatchRequest
	if s := (scanner{data: body}); !s.batchRequest(&batch) || !s.end() {
		t.Fatalf("scanner left the fast subset at byte %d of the bench-shaped batch body", s.i)
	}
	var viaJSON BatchRequest
	if err := json.Unmarshal(body, &viaJSON); err != nil || !reflect.DeepEqual(batch, viaJSON) {
		t.Fatalf("scanner and encoding/json disagree on the bench-shaped batch (json err %v)", err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := DecodeBatchRequest(body, &batch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("re-decoding a body the destination already holds allocates %v times, want 0", n)
	}
}

// fuzzSeeds are the shapes the differential fuzzers start from: what
// the clients send, then every construct that takes the body out of the
// scanner's subset or that encoding/json treats specially.
func fuzzSeeds() []string {
	seeds := []string{
		benchPredictBody,
		benchBatchBody(2),
		`{"requests":[` + benchPredictBody + `,{"job":""},null]}`,
		`{"job":"a\"b\\c\/d\b\f\n\r\té"}`,
		`{"job":"😀","env":"\ud83d","essential":[{"name":"\udc00\ud800"}]}`,
		"{\"job\":\"a\xffb\",\"env\":\"\xc3\x28\",\"optional\":[{\"value\":\"\xed\xa0\x80\"}]}",
		"{\"j\xffob\":\"a\"}",
		`{"job":null,"env":null,"scale_out":null,"essential":null,"optional":null}`,
		`{"essential":[null,{"name":null,"value":null}]}`,
		`{"job":"a","job":"b","essential":[{"name":"a","value":"b"},{"name":"x"}],"essential":[{"name":"c"}]}`,
		`{"JOB":"a","Env":"b","SCALE_OUT":3,"Essential":[{"NAME":"n","Value":"v"}]}`,
		`{"ſcale_out":3,"job":"K"}`,
		`{"scale_out":1e2}`, `{"scale_out":4.5}`, `{"scale_out":-0}`, `{"scale_out":0.0}`, `{"scale_out":00}`,
		`{"scale_out":9223372036854775807}`, `{"scale_out":9223372036854775808}`, `{"scale_out":-9223372036854775809}`,
		`{"scale_out":999999999999999999}`, `{"scale_out":1000000000000000000}`, `{"scale_out":"4"}`, `{"scale_out":- 4}`,
		`{"unknown":` + strings.Repeat("[", 64) + `{"a":{"b":[1,2,3]}}` + strings.Repeat("]", 64) + `,"job":"a"}`,
		`{"unknown":` + strings.Repeat(`{"a":`, 12000) + `1` + strings.Repeat(`}`, 12000) + `}`,
		`{"job":"a"}{"job":"b"}`, `{"job":"a"} junk`, `{"job":"a"}}`, `{"job":"a",}`, `{,"job":"a"}`, `{"job" "a"}`,
		`{}`, `[]`, `null`, `true`, `"job"`, `12`, ``, ` `, "\xef\xbb\xbf{}", "{\"job\":\"a\x00b\"}", "{\"job\":\"a\x7fb\"}",
		`{"requests":[]}`, `{"requests":{}}`, `{"requests":[[]]}`, `{"requests":[{}],"requests":[]}`, `{"Requests":[{"Job":"a"}]}`,
		" {\t\"requests\" :\r\n[ { \"job\" : \"a\" , \"scale_out\" : 2 } , { } ] } ",
	}
	// Every truncation of one valid body.
	for i := range benchPredictBody {
		seeds = append(seeds, benchPredictBody[:i])
	}
	return seeds
}

// checkDecodePredict is the differential property: the decoder and
// json.Unmarshal into a zero DTO accept the same inputs and produce the
// same value, whether the destination is fresh or was used before.
func checkDecodePredict(t *testing.T, data []byte, dirty *PredictRequest) {
	t.Helper()
	var want PredictRequest
	wantErr := json.Unmarshal(data, &want)
	for _, dst := range []*PredictRequest{{}, dirty} {
		err := DecodePredictRequest(data, dst)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodePredictRequest(%q) err = %v, json.Unmarshal err = %v", data, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(*dst, want) {
			t.Fatalf("DecodePredictRequest(%q) = %+v, json.Unmarshal = %+v", data, *dst, want)
		}
	}
}

func checkDecodeBatch(t *testing.T, data []byte, dirty *BatchRequest) {
	t.Helper()
	var want BatchRequest
	wantErr := json.Unmarshal(data, &want)
	for _, dst := range []*BatchRequest{{}, dirty} {
		err := DecodeBatchRequest(data, dst)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeBatchRequest(%q) err = %v, json.Unmarshal err = %v", data, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(*dst, want) {
			t.Fatalf("DecodeBatchRequest(%q) = %+v, json.Unmarshal = %+v", data, *dst, want)
		}
	}
}

// FuzzDecodePredictRequest: arbitrary bytes decode exactly as
// encoding/json decodes them, and never panic. The dirty destination is
// carried from one input to the next, as a pooled DTO is.
func FuzzDecodePredictRequest(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodePredict(t, data, dirtyPredictRequest(t))
	})
}

// FuzzDecodeBatchRequest is FuzzDecodePredictRequest for batch bodies.
func FuzzDecodeBatchRequest(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeBatch(t, data, dirtyBatchRequest(t))
	})
}

// TestDecodeCarriesNothingOver chains every seed through ONE
// destination, so each decode starts from whatever the previous,
// unrelated body left behind.
func TestDecodeCarriesNothingOver(t *testing.T) {
	var one PredictRequest
	var batch BatchRequest
	for _, s := range fuzzSeeds() {
		checkDecodePredict(t, []byte(s), &one)
		checkDecodeBatch(t, []byte(s), &batch)
	}
}

func BenchmarkDecodeBatch256(b *testing.B) {
	body := []byte(benchBatchBody(256))
	b.Run("scanner", func(b *testing.B) {
		var dst BatchRequest
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := DecodeBatchRequest(body, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var dst BatchRequest
			if err := json.Unmarshal(body, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
