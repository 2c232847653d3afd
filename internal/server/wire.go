package server

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
)

// appendResponse appends the 200 body of POST /query for out to dst:
// the compact document json.Marshal writes for the client.QueryResponse
// the outcome stands for, byte for byte, HTML escaping included —
// encoded straight from the engine's answers, with no wire struct, no
// binding map and no path string in between. Bindings are written in
// sorted key order, each SELECT variable once, an unbound one left out;
// paths are written label by label from the answer's data path. When
// explain is set and the outcome carries a trace, the deterministic
// explain plan goes in as json.Marshal writes it (its document is the
// client.ExplainPlan's). A non-finite score fails the encode with the
// error json.Marshal returns for it.
func appendResponse(dst []byte, out *QueryOutcome, queueWait time.Duration, explain bool) ([]byte, error) {
	var keys []string
	if len(out.Answers) > 0 && len(out.Vars) > 0 {
		keys = slices.Clone(out.Vars)
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	var term []byte // one binding's term text, reused
	var err error
	dst = append(dst, `{"answers":[`...)
	for i := range out.Answers {
		a := &out.Answers[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"score":`...)
		if dst, err = appendFloat(dst, a.Score); err != nil {
			return dst, err
		}
		dst = append(dst, `,"lambda":`...)
		if dst, err = appendFloat(dst, a.Lambda); err != nil {
			return dst, err
		}
		dst = append(dst, `,"psi":`...)
		if dst, err = appendFloat(dst, a.Psi); err != nil {
			return dst, err
		}
		if a.Exact() {
			dst = append(dst, `,"exact":true`...)
		}
		bound := 0
		for _, v := range keys {
			t, ok := a.Subst[v]
			if !ok {
				continue
			}
			if bound == 0 {
				dst = append(dst, `,"bindings":{`...)
			} else {
				dst = append(dst, ',')
			}
			bound++
			dst = append(appendString(dst, v), ':')
			term = t.Append(term[:0])
			dst = appendString(dst, term)
		}
		if bound > 0 {
			dst = append(dst, '}')
		}
		for j, pr := range a.Pairs {
			if j == 0 {
				dst = append(dst, `,"paths":[`...)
			} else {
				dst = append(dst, ',')
			}
			dst = appendPath(dst, pr.Data)
		}
		if len(a.Pairs) > 0 {
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"vars":`...)
	if out.Vars == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range out.Vars {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, v)
		}
		dst = append(dst, ']')
	}
	if out.Partial {
		dst = append(dst, `,"partial":true`...)
	}
	if out.StopReason != "" {
		dst = appendString(append(dst, `,"stop_reason":`...), out.StopReason)
	}
	st, tr := &out.Stats, out.Stats.Trace
	dst = strconv.AppendInt(append(dst, `,"stats":{"elapsed_ns":`...), st.Elapsed.Nanoseconds(), 10)
	dst = strconv.AppendInt(append(dst, `,"queue_ns":`...), queueWait.Nanoseconds(), 10)
	dst = strconv.AppendInt(append(dst, `,"query_paths":`...), int64(st.QueryPaths), 10)
	dst = strconv.AppendInt(append(dst, `,"extracted":`...), int64(st.Extracted), 10)
	var ioStats obs.IOStats
	if tr != nil {
		for i, s := range tr.Phases {
			if i == 0 {
				dst = append(dst, `,"phases":[`...)
			} else {
				dst = append(dst, ',')
			}
			dst = appendString(append(dst, `{"name":`...), s.Name)
			dst = strconv.AppendInt(append(dst, `,"duration_ns":`...), s.Duration.Nanoseconds(), 10)
			dst = append(dst, '}')
		}
		if len(tr.Phases) > 0 {
			dst = append(dst, ']')
		}
		ioStats = tr.IO
	}
	dst = strconv.AppendUint(append(dst, `,"io":{"page_reads":`...), ioStats.PageReads, 10)
	dst = strconv.AppendUint(append(dst, `,"cache_hits":`...), ioStats.CacheHits, 10)
	dst = strconv.AppendUint(append(dst, `,"cache_misses":`...), ioStats.CacheMisses, 10)
	dst = append(dst, "}}"...)
	if explain && tr != nil {
		plan, err := json.Marshal(obs.BuildPlan(tr))
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"explain":`...), plan...)
	}
	return append(dst, '}'), nil
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21
// on, with a one-digit negative exponent unpadded.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendPath appends p's “l1-e1-l2-…-lk” rendering (paths.Path.String)
// as a JSON string, label by label. Escaping the labels one at a time
// equals escaping the joined string: every label is cut from the next
// by an ASCII byte, which no multi-byte sequence spans.
func appendPath(dst []byte, p paths.Path) []byte {
	dst = append(dst, '"')
	for i, n := range p.Nodes {
		if i > 0 {
			dst = append(appendLabel(append(dst, '-'), p.Edges[i-1]), '-')
		}
		dst = appendLabel(dst, n)
	}
	return append(dst, '"')
}

// appendLabel appends t.Label(), escaped, without building it.
func appendLabel(dst []byte, t rdf.Term) []byte {
	if t.Kind == rdf.Var {
		dst = append(dst, '?')
	}
	return appendEscaped(dst, t.Value)
}

// appendString appends s as a JSON string the way encoding/json writes
// it with HTML escaping on.
func appendString[S string | []byte](dst []byte, s S) []byte {
	return append(appendEscaped(append(dst, '"'), s), '"')
}

// appendEscaped appends the body of s's JSON string: the quote and the
// backslash escaped, control bytes as \b \f \n \r \t or \u00XX, the
// HTML-sensitive <, > and & as \u00XX too, U+2028 and U+2029 as
// \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendEscaped[S string | []byte](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// jsonSafe[b] reports an ASCII byte encoding/json copies as it is with
// HTML escaping on: printable, and none of " \ < > &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()
