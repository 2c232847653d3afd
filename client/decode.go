package client

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// bodyBufs recycles read buffers, but none grown past maxPooledBody.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const (
	maxPooledBody = 1 << 20
	maxPresized   = 64 << 20 // the most a declared Content-Length reserves up front
)

// readResponse reads a 200 body to EOF, which frees the connection, into
// a pooled buffer sized from its Content-Length, and decodes it.
func readResponse(resp *http.Response) (out *QueryResponse, err error) {
	buf := bodyBufs.Get().(*[]byte)
	b := (*buf)[:0]
	if resp.ContentLength >= 0 {
		b = slices.Grow(b, int(min(resp.ContentLength, maxPresized))+1) // +1: room for the read that finds EOF
	}
	for n := 0; err == nil; b = b[:len(b)+n] {
		b = slices.Grow(b, 1)
		n, err = resp.Body.Read(b[len(b):cap(b)])
	}
	if err == io.EOF {
		out, err = decodeResponse(b)
	}
	if cap(b) <= maxPooledBody {
		*buf = b[:0]
		bodyBufs.Put(buf)
	}
	return out, err
}

// decodeResponse returns what json.Unmarshal makes of body, or its error:
// by hand where decodeHand takes body, as it takes all the server writes.
func decodeResponse(body []byte) (*QueryResponse, error) {
	out := new(QueryResponse)
	if decodeHand(string(body), out) {
		return out, nil
	}
	*out = QueryResponse{}
	return out, json.Unmarshal(body, out)
}

// decodeHand decodes s into out and reports whether it could: not where
// encoding/json errs, nor at an unknown, repeated or other-case key (it
// folds case, and merges a repeated key), nor past its depth of 10 000.
func decodeHand(s string, out *QueryResponse) bool {
	d := decoder{s: s}
	d.value(out)
	return d.peek() == 0 && d.i == len(s) && !d.bad
}

// decoder is a cursor over one JSON document. A failure moves it to the
// end, so every later read fails and every loop stops.
type decoder struct {
	s     string
	i     int
	depth int
	buf   []byte // scratch for strings with escapes
	bad   bool
}

// fail marks the document undecodable and returns "" for a reader to return.
func (d *decoder) fail() string {
	d.bad, d.i = true, len(d.s)
	return ""
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.i < len(d.s); d.i++ {
		if c := d.s[d.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// lit consumes the literal w if it is next.
func (d *decoder) lit(w string) bool {
	ok := d.peek() == w[0] && strings.HasPrefix(d.s[d.i:], w)
	if ok {
		d.i += len(w)
	}
	return ok
}

// value decodes the value at the cursor into the zero value p points
// to, as json.Unmarshal does: null leaves it as it is.
func (d *decoder) value(p any) {
	if d.lit("null") {
		return
	}
	var err error
	switch p := p.(type) {
	case *QueryResponse:
		d.fields("answers", &p.Answers, "vars", &p.Vars, "partial", &p.Partial, "stop_reason", &p.StopReason, "stats", &p.Stats, "explain", &p.Explain)
	case *Answer:
		d.fields("score", &p.Score, "lambda", &p.Lambda, "psi", &p.Psi, "exact", &p.Exact, "bindings", &p.Bindings, "paths", &p.Paths)
	case *Stats:
		d.fields("elapsed_ns", &p.ElapsedNS, "queue_ns", &p.QueueNS, "query_paths", &p.QueryPaths, "extracted", &p.Extracted, "phases", &p.Phases, "io", &p.IO)
	case *Phase:
		d.fields("name", &p.Name, "duration_ns", &p.DurationNS)
	case *IOStats:
		d.fields("page_reads", &p.PageReads, "cache_hits", &p.CacheHits, "cache_misses", &p.CacheMisses)
	case *ExplainPlan:
		d.fields("version", &p.Version, "query", &p.Query, "answers", &p.Answers, "partial", &p.Partial, "stop_reason", &p.StopReason, "restarts", &p.Restarts, "phases", &p.Phases)
	case *ExplainNode:
		d.fields("name", &p.Name, "attrs", &p.Attrs, "children", &p.Children)
	case **ExplainPlan:
		*p = new(ExplainPlan)
		d.value(*p)
	case **ExplainNode:
		*p = new(ExplainNode)
		d.value(*p)
	case *[]Answer:
		elems(d, p)
	case *[]Phase:
		elems(d, p)
	case *[]*ExplainNode:
		elems(d, p)
	case *[]string:
		elems(d, p)
	case *map[string]string:
		entries(d, p)
	case *map[string]int64:
		entries(d, p)
	case *string:
		*p = d.str()
	case *bool:
		if *p = d.lit("true"); !*p && !d.lit("false") {
			d.fail()
		}
	case *float64:
		*p, err = strconv.ParseFloat(d.number(), 64)
	case *int64:
		*p, err = strconv.ParseInt(d.number(), 10, 64)
	case *uint64:
		*p, err = strconv.ParseUint(d.number(), 10, 64)
	case *int:
		*p, err = strconv.Atoi(d.number())
	}
	if err != nil { // out of range, or a fraction where an integer goes
		d.fail()
	}
}

// list reads the array or object opened by open, calling member at each
// member with its key; member fails on an end right after a comma.
func (d *decoder) list(open, end byte, member func(key string)) {
	if d.peek() != open || d.depth == 10000 {
		d.fail()
		return
	}
	d.i++
	d.depth++
	for first := true; !d.bad; first = false {
		switch c := d.peek(); {
		case c == end:
			d.i++
			d.depth--
			return
		case !first && c != ',':
			d.fail()
			return
		case !first:
			d.i++
		}
		var k string
		if open == '{' {
			if k = d.str(); !d.lit(":") {
				d.fail()
				return
			}
		}
		member(k)
	}
}

// fields reads an object into a struct given as key, pointer pairs; a
// key not among them, or one read twice, fails the decode.
func (d *decoder) fields(kv ...any) {
	var seen uint
	d.list('{', '}', func(k string) {
		for i := 0; i < len(kv); i += 2 {
			if bit := uint(1) << (i / 2); kv[i].(string) == k && seen&bit == 0 {
				seen |= bit
				d.value(kv[i+1])
				return
			}
		}
		d.fail()
	})
}

// elems reads an array into a fresh slice, non-nil when empty.
func elems[T any](d *decoder, s *[]T) {
	*s = []T{}
	d.list('[', ']', func(string) {
		*s = append(*s, *new(T))
		d.value(&(*s)[len(*s)-1])
	})
}

// entries reads an object into a fresh map; a repeated key overwrites.
func entries[V any](d *decoder, m *map[string]V) {
	*m = map[string]V{}
	var v V // outside the closure, or every entry moves one to the heap
	d.list('{', '}', func(k string) {
		v = *new(V)
		d.value(&v)
		(*m)[k] = v
	})
}

// number reads a number held to JSON's grammar, which strconv does not
// enforce: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *decoder) number() string {
	d.peek()
	s, i := d.s, d.i
	if i < len(s) && s[i] == '-' {
		i++
	}
	j := digits(s, i)
	ok := j > i && (s[i] != '0' || j == i+1)
	if i = j; i < len(s) && s[i] == '.' {
		j = digits(s, i+1)
		ok, i = ok && j > i+1, j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j = digits(s, i)
		ok, i = ok && j > i, j
	}
	if !ok {
		return d.fail()
	}
	n := s[d.i:i]
	d.i = i
	return n
}

// digits returns the end of the run of decimal digits at i.
func digits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// str reads a string: a substring of the document if printable ASCII
// without escapes, else unescaped into the scratch buffer as encoding/json
// does (pairs joined; a lone surrogate or bad UTF-8 byte becomes U+FFFD).
func (d *decoder) str() string {
	if d.peek() != '"' {
		return d.fail()
	}
	s, start := d.s, d.i+1
	i := plainRun(s, start)
	if i < len(s) && s[i] == '"' {
		d.i = i + 1
		return s[start:i]
	}
	b := append(d.buf[:0], s[start:i]...)
	for i < len(s) {
		j := plainRun(s, i)
		if b, i = append(b, s[i:j]...), j; i == len(s) {
			break
		}
		switch c := s[i]; {
		case c == '"':
			d.i, d.buf = i+1, b
			return string(b)
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(s[i:])
			b, i = utf8.AppendRune(b, r), i+size
		case c == '\\' && i+1 < len(s):
			if k := strings.IndexByte(`"\/bfnrt`, s[i+1]); k >= 0 {
				b, i = append(b, "\"\\/\b\f\n\r\t"[k]), i+2
				continue
			}
			r := d.u4(i)
			if i += 6; r < 0 {
				return d.fail()
			}
			if utf16.IsSurrogate(r) {
				if r = utf16.DecodeRune(r, d.u4(i)); r != utf8.RuneError {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
		default: // a control byte, or a backslash ending the document
			return d.fail()
		}
	}
	return d.fail()
}

// u4 decodes the \uXXXX escape at i, or returns -1 if there is none.
func (d *decoder) u4(i int) rune {
	if len(d.s)-i < 6 || d.s[i] != '\\' || d.s[i+1] != 'u' {
		return -1
	}
	n, err := strconv.ParseUint(d.s[i+2:i+6], 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}

// plainRun returns the first index from i of a byte not printable ASCII
// or '"' or '\\', eight bytes at a time while none is. In a word with no
// high bit set, a byte below ' ' borrows into a high bit when ' ' is
// subtracted from each; a '"' or '\\' does when 1 is, after XOR with it.
func plainRun(s string, i int) int {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(s); i += 8 {
		w := s[i : i+8]
		x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
		q, b := x^(lo*'"'), x^(lo*'\\')
		if (x|(x-lo*' ')|(q-lo)|(b-lo))&hi != 0 {
			break
		}
	}
	for i < len(s) && ' ' <= s[i] && s[i] < utf8.RuneSelf && s[i] != '"' && s[i] != '\\' {
		i++
	}
	return i
}
