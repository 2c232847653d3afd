package client

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
)

// q10Body is a Q10-shaped 200 body as the server writes it: compact,
// bindings in N-Triples syntax with <> HTML-escaped, paths, the trace's
// phases and the buffer-pool counts.
const q10Body = `{"answers":[{"score":2,"lambda":0,"psi":2,"exact":true,"bindings":{"c":"\u003chttp://lubm.example.org/University0/Department0/Course0\u003e","s":"\u003chttp://lubm.example.org/University0/Department0/UndergraduateStudent7\u003e"},"paths":["http://lubm.example.org/University0/Department0/UndergraduateStudent7-http://lubm.example.org/vocab/takesCourse-http://lubm.example.org/University0/Department0/Course0"]},{"score":2.5,"lambda":0.5,"psi":2,"bindings":{"c":"\"Course 1\"@en","s":"_:b1"},"paths":["a-p-b","c-q-d"]},{"score":1e-7,"lambda":1e+21,"psi":-0}],"vars":["s","c"],"stats":{"elapsed_ns":483211,"queue_ns":1000000,"query_paths":5,"extracted":2451,"phases":[{"name":"decompose","duration_ns":2101},{"name":"cluster","duration_ns":301233}],"io":{"page_reads":12,"cache_hits":40,"cache_misses":3}}}`

// explainBody is a partial 200 body with nil vars and an explain plan.
const explainBody = `{"answers":[],"vars":null,"partial":true,"stop_reason":"deadline exceeded","stats":{"elapsed_ns":1,"queue_ns":0,"query_paths":2,"extracted":0,"io":{"page_reads":0,"cache_hits":0,"cache_misses":0}},"explain":{"version":2,"query":"SELECT ?x WHERE { ?x \u003cp\u003e ?y }","answers":0,"partial":true,"stop_reason":"deadline exceeded","phases":[{"name":"decompose","attrs":{"query_paths":2}},{"name":"cluster","attrs":{"kept":1024,"retrieved":2451},"children":[{"name":"align[0]","attrs":{"aligned":6,"memo_hits":0}},{"name":"align[1]"}]},{"name":"search","attrs":{"visited":2058}}]}}`

// handBodies are documents the hand decoder must take itself: the
// server's shapes, and strings through every unescaping rule.
var handBodies = []string{
	q10Body,
	explainBody,
	" \n" + q10Body + " \t\r\n",
	`{"answers":[{"score":1,"lambda":0,"psi":1,"bindings":{"x\u0000":"q\"uo\\te\/\b\f\n\r\t","y":"\ud83d\ude00 \ud800 \udc00x \ud800\u0041 \u2028\u2029 \u00e9\u00C9"},"paths":[]}],"vars":[],"stats":{"elapsed_ns":0,"queue_ns":0,"query_paths":0,"extracted":0,"phases":[],"io":{"page_reads":0,"cache_hits":0,"cache_misses":0}}}`,
	"{\"answers\":[{\"score\":1,\"lambda\":0,\"psi\":1,\"bindings\":{\"k\":\"bad\xffutf8\xe2\x80 \xed\xa0\x80 ok\xe2\x80\xa8\"},\"exact\":false}],\"vars\":[\"\xc3\"],\"stats\":{}}",
	`{ "answers" : [ ] , "vars" : [ "x" ] , "stats" : { "io" : { } } , "explain" : { "phases" : [ { "name" : "n" , "attrs" : { } , "children" : [ ] } ] } }`,
}

// foreignBodies are documents the server never writes: nulls, keys and
// numbers it never sends, trailing bytes, malformed JSON.
var foreignBodies = []string{
	`{"answers":[],"vars":[],"stats":{},"extra":{"a":[1,2]}}`,
	`{"Answers":[{"score":1}],"vars":[]}`,
	`{"answers":null,"vars":null,"stats":null,"explain":null}`,
	`{"answers":[null,{"score":null,"bindings":{"x":null}}],"stats":{"phases":[null]}}`,
	`{"answers":[{"score":1e400,"lambda":0,"psi":0}],"vars":[]}`,
	`{"answers":[],"vars":[],"stats":{"elapsed_ns":1.5,"query_paths":99999999999999999999}}`,
	`{"answers":[],"vars":[],"stats":{"io":{"page_reads":-1}}}`,
	`{"answers":[],"vars":["\ud800"],"vars":["x"]}`,
	`{"answers":[{"bindings":{"a":"1"},"bindings":{"b":"2"}}]}`,
	q10Body + "x",
	q10Body + "{}",
	`{"answers":[1,],"vars":[]}`,
	`{"answers":[],"vars":["a\qb"]}`,
	`{"answers":[],"vars":["a` + "\x01" + `b"]}`,
	`null`,
	``,
	`[]`,
}

// TestDecodeHand checks that the hand decoder takes every document the
// server writes, ending exactly as json.Unmarshal ends, and that the
// foreign ones decode as json.Unmarshal decodes them.
func TestDecodeHand(t *testing.T) {
	for _, body := range handBodies {
		var want, got QueryResponse
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("json.Unmarshal(%q): %v", body, err)
		}
		if !decodeHand(body, &got) {
			t.Errorf("hand decoder gave up on %q", body)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("hand decoder on %q:\n got %+v\nwant %+v", body, got, want)
		}
	}
	for _, body := range foreignBodies {
		checkDecode(t, []byte(body))
	}
}

// checkDecode fails unless decodeResponse returns what json.Unmarshal
// returns for body, and the hand decoder, where it takes body, the same.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want QueryResponse
	werr := json.Unmarshal(body, &want)
	got, gerr := decodeResponse(body)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%q: error %v, json.Unmarshal's %v", body, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(*got, want) {
		t.Fatalf("%q:\n got %+v\nwant %+v", body, *got, want)
	}
	var hand QueryResponse
	if decodeHand(string(body), &hand) && (werr != nil || !reflect.DeepEqual(hand, want)) {
		t.Fatalf("%q: hand decoder took it as %+v; json.Unmarshal: %+v, %v", body, hand, want, werr)
	}
}

// FuzzDecodeResponse holds the decoder to json.Unmarshal over arbitrary
// bytes: the same value, or an error exactly when json.Unmarshal errs.
func FuzzDecodeResponse(f *testing.F) {
	for _, s := range append(handBodies, foreignBodies...) {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// bodyServer answers every request 200 with body behind its
// Content-Length, as the query server does, and counts the connections
// it accepts.
func bodyServer(t *testing.T, body string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write([]byte(body))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

// TestQueryReusesConnection checks that Query reads each body to EOF, so
// sequential queries share one keep-alive connection, and that bytes
// after the JSON value are an error.
func TestQueryReusesConnection(t *testing.T) {
	srv, conns := bodyServer(t, q10Body)
	c := New(srv.URL)
	c.HTTP = srv.Client()
	for i := 0; i < 50; i++ {
		resp, err := c.Query(context.Background(), "SELECT * WHERE { ?s ?p ?o }", QueryOptions{})
		if err != nil || len(resp.Answers) != 3 {
			t.Fatalf("query %d = %+v, %v", i, resp, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("50 sequential queries opened %d connections, want 1", n)
	}

	srv, _ = bodyServer(t, q10Body+" trailing")
	c = New(srv.URL)
	c.HTTP = srv.Client()
	if resp, err := c.Query(context.Background(), "SELECT * WHERE { ?s ?p ?o }", QueryOptions{}); err == nil {
		t.Errorf("a body with bytes after its JSON value decoded to %+v", resp)
	}
}

// TestPlainRun checks the word-at-a-time scan against its definition:
// every byte value at every offset of a run, before, inside and after a
// whole word.
func TestPlainRun(t *testing.T) {
	for c := 0; c < 256; c++ {
		for at := 0; at < 20; at++ {
			s := []byte("abcdefghijklmnopqrst")
			s[at] = byte(c)
			want := len(s)
			if c < ' ' || c >= 0x80 || c == '"' || c == '\\' {
				want = at
			}
			for from := 0; from <= at; from++ {
				if got := plainRun(string(s), from); got != want {
					t.Fatalf("plainRun(%q, %d) = %d, want %d", s, from, got, want)
				}
			}
		}
	}
}
