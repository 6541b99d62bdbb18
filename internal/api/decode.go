package api

import (
	"encoding/json"
	"unicode/utf8"
)

// The predict routes decode their bodies with a hand-written scanner
// instead of encoding/json: one pass over the bytes, no reflection, and
// the destination DTO's strings and slice capacity are kept wherever
// the new body repeats the previous one.
//
// The scanner only understands the subset of JSON those bodies are
// written in by every client of this repository: the DTO's own keys in
// their canonical spelling, each at most once, string literals without
// escapes, plain integer literals, no nulls. That subset is chosen so
// that encoding/json would decode it to the same value; on the first
// byte outside it the scanner gives up and the same buffer goes to
// json.Unmarshal, which stays the authority on everything else — what
// is malformed, how escapes, nulls, duplicate and case-variant keys
// behave. The choice is made from the bytes alone, so every input has
// exactly one outcome.

// DecodePredictRequest decodes data into dst with the result of
// json.Unmarshal(data, new(PredictRequest)): the same error-or-not and,
// on success, the same value. Whatever dst held before is overwritten;
// its strings and slice capacity are reused where they fit. Strings are
// copied out of data, so the caller may reuse the buffer afterwards.
func DecodePredictRequest(data []byte, dst *PredictRequest) error {
	s := scanner{data: data}
	if s.predictRequest(dst) && s.end() {
		return nil
	}
	*dst = PredictRequest{}
	return json.Unmarshal(data, dst)
}

// DecodeBatchRequest is DecodePredictRequest for the body of
// POST /v1/predict/batch.
func DecodeBatchRequest(data []byte, dst *BatchRequest) error {
	s := scanner{data: data}
	if s.batchRequest(dst) && s.end() {
		return nil
	}
	*dst = BatchRequest{}
	return json.Unmarshal(data, dst)
}

// scanner is a cursor over one request body. Its methods report false
// when the input leaves the fast subset, with the cursor and the
// destination in an unspecified state.
type scanner struct {
	data []byte
	i    int
}

func (s *scanner) skipSpace() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (s *scanner) consume(c byte) bool {
	s.skipSpace()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.i == len(s.data)
}

// str scans a string literal with no escapes and no control characters,
// and returns its contents, which alias the body. Invalid UTF-8 is left
// to encoding/json, which replaces it.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start, ascii := s.i, true
	for ; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			seg := s.data[start:s.i]
			s.i++
			return seg, ascii || utf8.Valid(seg)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// strInto scans a string literal into dst, keeping the string dst
// already holds when it says the same.
func (s *scanner) strInto(dst *string) bool {
	seg, ok := s.str()
	if ok && *dst != string(seg) {
		*dst = string(seg)
	}
	return ok
}

// intInto scans an integer literal of at most 18 digits, which cannot
// overflow an int64. A fraction or an exponent, which encoding/json
// refuses for an int field, longer literals and (where int is 32 bits)
// values an int cannot hold are left to it.
func (s *scanner) intInto(dst *int) bool {
	s.skipSpace()
	i, neg := s.i, false
	if i < len(s.data) && s.data[i] == '-' {
		neg = true
		i++
	}
	start, v := i, int64(0)
	for ; i < len(s.data) && s.data[i]-'0' <= 9; i++ {
		if i-start == 18 {
			return false
		}
		v = v*10 + int64(s.data[i]-'0')
	}
	if i == start || (s.data[start] == '0' && i-start > 1) || i == len(s.data) {
		return false
	}
	switch s.data[i] {
	case ',', '}', ' ', '\t', '\r', '\n':
	default:
		return false
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return false
	}
	*dst, s.i = int(v), i
	return true
}

// next reports whether another member or element follows (a comma) or
// the enclosing object or array ends here (closer); anything else
// leaves the fast subset.
func (s *scanner) next(closer byte) (more, ok bool) {
	if s.consume(',') {
		return true, true
	}
	return false, s.consume(closer)
}

// Field bits of the "seen" sets: a key seen twice leaves the fast
// subset, a key never seen has its field zeroed.
const (
	seenJob = 1 << iota
	seenEnv
	seenScaleOut
	seenEssential
	seenOptional
)

const (
	seenName = 1 << iota
	seenValue
)

func (s *scanner) predictRequest(dst *PredictRequest) bool {
	if !s.consume('{') {
		return false
	}
	seen := 0
	for more := !s.consume('}'); more; {
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return false
		}
		field := 0
		switch string(key) {
		case "job":
			field, ok = seenJob, s.strInto(&dst.Job)
		case "env":
			field, ok = seenEnv, s.strInto(&dst.Env)
		case "scale_out":
			field, ok = seenScaleOut, s.intInto(&dst.ScaleOut)
		case "essential":
			field, ok = seenEssential, s.properties(&dst.Essential)
		case "optional":
			field, ok = seenOptional, s.properties(&dst.Optional)
		default:
			return false
		}
		if !ok || seen&field != 0 {
			return false
		}
		seen |= field
		if more, ok = s.next('}'); !ok {
			return false
		}
	}
	if seen&seenJob == 0 {
		dst.Job = ""
	}
	if seen&seenEnv == 0 {
		dst.Env = ""
	}
	if seen&seenScaleOut == 0 {
		dst.ScaleOut = 0
	}
	if seen&seenEssential == 0 {
		dst.Essential = nil
	}
	if seen&seenOptional == 0 {
		dst.Optional = nil
	}
	return true
}

// extend lengthens s by one element. Within capacity that is the element
// a previous decode left there, strings and slices included, for the
// scan of the next element to reuse or overwrite field by field.
func extend[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// properties scans an array of property objects over the elements dst
// already has room for.
func (s *scanner) properties(dst *[]Property) bool {
	if !s.consume('[') {
		return false
	}
	ps := (*dst)[:0]
	if ps == nil {
		// Non-nil even when the array is empty, as encoding/json has it;
		// four is the essential property count of every Bellamy model.
		ps = make([]Property, 0, 4)
	}
	for more := !s.consume(']'); more; {
		ps = extend(ps)
		ok := s.property(&ps[len(ps)-1])
		if !ok {
			return false
		}
		if more, ok = s.next(']'); !ok {
			return false
		}
	}
	*dst = ps
	return true
}

func (s *scanner) property(dst *Property) bool {
	if !s.consume('{') {
		return false
	}
	seen := 0
	for more := !s.consume('}'); more; {
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return false
		}
		field := 0
		switch string(key) {
		case "name":
			field, ok = seenName, s.strInto(&dst.Name)
		case "value":
			field, ok = seenValue, s.strInto(&dst.Value)
		default:
			return false
		}
		if !ok || seen&field != 0 {
			return false
		}
		seen |= field
		if more, ok = s.next('}'); !ok {
			return false
		}
	}
	if seen&seenName == 0 {
		dst.Name = ""
	}
	if seen&seenValue == 0 {
		dst.Value = ""
	}
	return true
}

func (s *scanner) batchRequest(dst *BatchRequest) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		dst.Requests = nil
		return true
	}
	// "requests" is the only key, so a second member is a duplicate or
	// unknown: either way not ours.
	key, ok := s.str()
	if !ok || string(key) != "requests" || !s.consume(':') || !s.consume('[') {
		return false
	}
	rs := dst.Requests[:0]
	if rs == nil {
		rs = []PredictRequest{}
	}
	for more := !s.consume(']'); more; {
		rs = extend(rs)
		ok := s.predictRequest(&rs[len(rs)-1])
		if !ok {
			return false
		}
		if more, ok = s.next(']'); !ok {
			return false
		}
	}
	dst.Requests = rs
	return s.consume('}')
}
