package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sama/client"
	"sama/internal/align"
	"sama/internal/core"
	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/sparql"
	"sama/internal/workload"
)

// toWire converts an engine outcome into the shared wire struct, field
// by field: the oracle whose json.Marshal every encoded body must equal
// byte for byte.
func toWire(out *QueryOutcome, queueWait time.Duration, explain bool) *client.QueryResponse {
	resp := &client.QueryResponse{
		Answers:    make([]client.Answer, 0, len(out.Answers)),
		Vars:       out.Vars,
		Partial:    out.Partial,
		StopReason: out.StopReason,
	}
	for _, a := range out.Answers {
		wa := client.Answer{Score: a.Score, Lambda: a.Lambda, Psi: a.Psi, Exact: a.Exact()}
		if len(out.Vars) > 0 {
			b := make(map[string]string, len(out.Vars))
			for _, v := range out.Vars {
				if t, ok := a.Subst[v]; ok {
					b[v] = t.String()
				}
			}
			if len(b) > 0 {
				wa.Bindings = b
			}
		}
		for _, pr := range a.Pairs {
			wa.Paths = append(wa.Paths, pr.Data.String())
		}
		resp.Answers = append(resp.Answers, wa)
	}
	resp.Stats = client.Stats{
		ElapsedNS:  out.Stats.Elapsed.Nanoseconds(),
		QueueNS:    queueWait.Nanoseconds(),
		QueryPaths: out.Stats.QueryPaths,
		Extracted:  out.Stats.Extracted,
	}
	if tr := out.Stats.Trace; tr != nil {
		for _, s := range tr.Phases {
			resp.Stats.Phases = append(resp.Stats.Phases, client.Phase{
				Name: s.Name, DurationNS: s.Duration.Nanoseconds(),
			})
		}
		resp.Stats.IO = client.IOStats(tr.IO)
		if explain {
			resp.Explain = planToWire(obs.BuildPlan(tr))
		}
	}
	return resp
}

// planToWire converts the engine's explain plan into the wire mirror.
func planToWire(p *obs.Plan) *client.ExplainPlan {
	if p == nil {
		return nil
	}
	return &client.ExplainPlan{
		Version:    p.Version,
		Query:      p.Query,
		Answers:    p.Answers,
		Partial:    p.Partial,
		StopReason: p.StopReason,
		Phases:     planNodesToWire(p.Phases),
	}
}

func planNodesToWire(ns []*obs.PlanNode) []*client.ExplainNode {
	if ns == nil {
		return nil
	}
	out := make([]*client.ExplainNode, 0, len(ns))
	for _, n := range ns {
		out = append(out, &client.ExplainNode{
			Name:     n.Name,
			Attrs:    n.Attrs,
			Children: planNodesToWire(n.Children),
		})
	}
	return out
}

// bodyTransport is an in-memory http.RoundTripper that answers every
// request 200 with its bytes behind their Content-Length.
type bodyTransport []byte

func (b bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		ContentLength: int64(len(b)),
		Body:          io.NopCloser(bytes.NewReader(b)),
		Request:       req,
	}, nil
}

// bodyClient is a Go client whose every query gets body as its 200
// response, through bodyTransport.
func bodyClient(body []byte) *client.Client {
	c := client.New("http://samad.invalid")
	c.HTTP = &http.Client{Transport: bodyTransport(body)}
	return c
}

// checkOracle fails unless appendResponse writes exactly json.Marshal of
// toWire for out, or fails exactly when it does, and unless client.Query
// decodes the body into what json.Unmarshal makes of it.
func checkOracle(t *testing.T, name string, out *QueryOutcome, queueWait time.Duration, explain bool) []byte {
	t.Helper()
	want, werr := json.Marshal(toWire(out, queueWait, explain))
	got, gerr := appendResponse([]byte("prefix"), out, queueWait, explain)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: appendResponse error %v, json.Marshal error %v", name, gerr, werr)
	}
	if werr != nil {
		if gerr.Error() != werr.Error() {
			t.Errorf("%s: error %q, json.Marshal's %q", name, gerr, werr)
		}
		return nil
	}
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("%s: appendResponse dropped dst", name)
	}
	got = got[len("prefix"):]
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoded body differs from json.Marshal:\n got: %s\nwant: %s", name, got, want)
	}
	var unmarshalled client.QueryResponse
	if err := json.Unmarshal(got, &unmarshalled); err != nil {
		t.Fatalf("%s: json.Unmarshal of the body: %v", name, err)
	}
	decoded, err := bodyClient(got).Query(context.Background(), "SELECT ?x WHERE { ?x <p> ?y }", client.QueryOptions{})
	if err != nil {
		t.Fatalf("%s: client.Query: %v", name, err)
	}
	if !reflect.DeepEqual(*decoded, unmarshalled) {
		t.Errorf("%s: client.Query decodes\n%+v\njson.Unmarshal\n%+v", name, *decoded, unmarshalled)
	}
	return got
}

var lubmOnce struct {
	sync.Once
	out map[string]*QueryOutcome
	ids []string
	err error
}

// lubmOutcomes runs every LUBM query Q1–Q12 at k = 10 over a small
// generated index, traced, as the database's backend would, and returns
// the outcomes by query ID (the index is built once per test binary).
func lubmOutcomes(tb testing.TB) (map[string]*QueryOutcome, []string) {
	tb.Helper()
	lubmOnce.Do(func() {
		dir, err := os.MkdirTemp("", "sama-wire-")
		if err != nil {
			lubmOnce.err = err
			return
		}
		defer os.RemoveAll(dir)
		ix, err := index.Build(filepath.Join(dir, "lubm"), datasets.LUBM{}.Generate(4000, 1), index.Options{})
		if err != nil {
			lubmOnce.err = err
			return
		}
		defer ix.Close()
		e := core.New(ix, core.Options{})
		defer e.Close()
		lubmOnce.out = map[string]*QueryOutcome{}
		for _, q := range workload.LUBMQueries() {
			parsed, err := sparql.Parse(q.SPARQL)
			if err != nil {
				lubmOnce.err = err
				return
			}
			vars := parsed.Select
			if vars == nil {
				vars = parsed.Pattern.Vars()
			}
			answers, st, err := e.QueryWithStatsContext(context.Background(), parsed.Pattern, 10)
			if err != nil {
				lubmOnce.err = err
				return
			}
			lubmOnce.out[q.ID] = &QueryOutcome{Answers: answers, Vars: vars, Stats: st}
			lubmOnce.ids = append(lubmOnce.ids, q.ID)
		}
	})
	if lubmOnce.err != nil {
		tb.Fatal(lubmOnce.err)
	}
	return lubmOnce.out, lubmOnce.ids
}

// TestAppendResponseMatchesMarshal is the encoder's oracle over real
// engine outcomes: every LUBM query, with and without the explain plan,
// a partial outcome with a stop reason, nil and empty Vars, and a
// SELECT list that repeats a variable and names an unbound one.
func TestAppendResponseMatchesMarshal(t *testing.T) {
	outs, ids := lubmOutcomes(t)
	if len(ids) != 12 {
		t.Fatalf("%d LUBM queries, want Q1–Q12", len(ids))
	}
	answered := 0
	for _, id := range ids {
		out := outs[id]
		if len(out.Answers) > 0 {
			answered++
		}
		for _, explain := range []bool{false, true} {
			body := checkOracle(t, id, out, 1234*time.Microsecond, explain)
			if explain != bytes.Contains(body, []byte(`"explain":{"version":`)) {
				t.Errorf("%s explain=%v: explain field presence wrong", id, explain)
			}
		}
	}
	if answered < 10 {
		t.Errorf("only %d of 12 LUBM queries answered: the oracle would check little", answered)
	}

	q := *outs["Q10"]
	q.Partial, q.StopReason = true, "deadline exceeded"
	checkOracle(t, "partial", &q, 0, true)
	q.Vars = nil
	checkOracle(t, "nil vars", &q, 0, false)
	q.Vars = []string{}
	checkOracle(t, "empty vars", &q, 0, false)
	q.Vars = append(slices.Clone(outs["Q10"].Vars), outs["Q10"].Vars[0], "unbound")
	checkOracle(t, "repeated and unbound vars", &q, 0, false)
	q.Answers = nil
	checkOracle(t, "no answers", &q, 0, false)
	q.Stats = core.QueryStats{}
	checkOracle(t, "no trace", &q, 0, true)
}

// countingWriter is an http.ResponseWriter that records the body and
// counts the Write calls that carried it.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.ResponseRecorder.Write(p)
}

// TestResponseIsOneWrite checks the 200 path on the wire: the body
// json.Marshal would write, behind a Content-Length header, in one
// Write — through writeOutcome on a LUBM outcome and through the whole
// handler.
func TestResponseIsOneWrite(t *testing.T) {
	outs, _ := lubmOutcomes(t)
	out := outs["Q10"]
	h := New(Backend{Query: func(context.Context, string, int, int) (*QueryOutcome, error) { return out, nil }}, Options{})

	cw := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	h.writeOutcome(cw, out, time.Millisecond, true)
	want, err := json.Marshal(toWire(out, time.Millisecond, true))
	if err != nil {
		t.Fatal(err)
	}
	if cw.Code != http.StatusOK || cw.writes != 1 || !bytes.Equal(cw.Body.Bytes(), want) {
		t.Errorf("writeOutcome: status %d in %d writes, body equal to json.Marshal: %v",
			cw.Code, cw.writes, bytes.Equal(cw.Body.Bytes(), want))
	}
	if cl := cw.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Errorf("Content-Length = %q, want %d", cl, len(want))
	}

	cw = &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(cw, httptest.NewRequest(http.MethodPost, "/query?explain=1", strings.NewReader("SELECT ?x WHERE { ?x <p> ?y }")))
	if cw.Code != http.StatusOK || cw.writes != 1 {
		t.Errorf("handler: status %d in %d writes, want 200 in one", cw.Code, cw.writes)
	}
	if cl := cw.Header().Get("Content-Length"); cl != strconv.Itoa(cw.Body.Len()) {
		t.Errorf("handler: Content-Length = %q for a %d-byte body", cl, cw.Body.Len())
	}
	var resp client.QueryResponse
	if err := json.Unmarshal(cw.Body.Bytes(), &resp); err != nil || len(resp.Answers) != len(out.Answers) || resp.Explain == nil {
		t.Errorf("handler body does not decode to the outcome: %v", err)
	}
}

// TestEncodeFailureIs500 checks that an outcome the encoder refuses — a
// NaN score — is a 500 ErrorResponse counted as a 500, not an empty 200.
func TestEncodeFailureIs500(t *testing.T) {
	reg := obs.NewRegistry()
	h := New(Backend{
		Metrics: reg,
		Query: func(context.Context, string, int, int) (*QueryOutcome, error) {
			out := testOutcome(false)
			out.Answers[0].Score = math.NaN()
			return out, nil
		},
	}, Options{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("SELECT ?x WHERE { ?x <p> ?y }")))
	var er client.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil ||
		!strings.Contains(er.Error, "NaN") {
		t.Errorf("NaN score = %d %q (decode: %v), want a 500 ErrorResponse naming the value", rec.Code, rec.Body, err)
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text.String(), `sama_server_requests_total{code="500"}`); v != 1 {
		t.Errorf(`requests_total{code="500"} = %g, want 1`, v)
	}
	if strings.Contains(text.String(), `sama_server_requests_total{code="200"}`) {
		t.Error("the failed encode was also counted as a 200")
	}
}

// FuzzAppendResponse fuzzes the strings the encoder escapes — a binding
// value (as a literal and as an IRI), a path label, the stop reason,
// which is also a phase name and the plan's query text — and the score:
// the body must equal json.Marshal of the wire struct and decode through
// client.QueryResponse, and a NaN or infinite score must fail the
// encode.
func FuzzAppendResponse(f *testing.F) {
	f.Add("plain", "ub:advisor", "", 1.5)
	f.Add(`q"uo\te`, `back\slash`, "deadline exceeded", 0.0)
	f.Add("ctl\x00\x01\b\f\n\r\t\x1f\x7f", "<a&b>", "<&>", -2.25)
	f.Add("sep\u2028para\u2029", "\u2028", "\u2029", 1e-7)
	f.Add("bad\xffutf8\xe2\x80", "\xc3", "\xe2\x80\xa8", 1e21)
	f.Add("ok", "ok", "ok", math.NaN())
	f.Add("ok", "ok", "ok", math.Inf(1))
	f.Add("ok", "ok", "ok", math.Inf(-1))
	f.Add("日本語", "é-ü", "?x", 123456789.125)
	f.Fuzz(func(t *testing.T, value, label, stop string, score float64) {
		tr := obs.NewTrace()
		tr.Query = label
		sp := tr.Phase(stop)
		sp.Set(stop, 7)
		sp.End()
		data := paths.Path{
			Nodes: []rdf.Term{rdf.NewIRI(label), rdf.NewLiteral(value), rdf.NewVar(label)},
			Edges: []rdf.Term{rdf.NewIRI(stop), rdf.NewIRI(label)},
		}
		out := &QueryOutcome{
			Answers: []core.Answer{{
				Score: score, Lambda: 1, Psi: score,
				Subst: rdf.Substitution{
					"x":   rdf.NewLiteral(value),
					"y":   rdf.NewIRI(value),
					label: rdf.NewLangLiteral(value, label),
					stop:  rdf.NewTypedLiteral(label, value),
				},
				Pairs: []align.PairedPath{{Data: data}, {Data: paths.Path{Nodes: []rdf.Term{rdf.NewBlank(value)}}}},
			}},
			Vars:       []string{"y", "x", label, stop, "x", "unbound"},
			Partial:    stop != "",
			StopReason: stop,
			Stats:      core.QueryStats{Trace: tr, Elapsed: time.Duration(len(value))},
		}
		body := checkOracle(t, "fuzz", out, 0, true)
		finite := !math.IsNaN(score) && !math.IsInf(score, 0)
		if (body != nil) != finite {
			t.Fatalf("score %v: encoded %v", score, body != nil)
		}
		if body == nil {
			return
		}
		var resp client.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("body does not decode: %v\n%s", err, body)
		}
		if len(resp.Answers) != 1 || resp.Answers[0].Score != score || len(resp.Answers[0].Paths) != 2 {
			t.Fatalf("decoded answers %+v", resp.Answers)
		}
	})
}

// discardWriter is an http.ResponseWriter that throws the response away.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkWriteResponse times the JSON encode layer on its own: one
// Q10-sized LUBM outcome (ten answers, their bindings and paths, the
// trace's phases) through the handler's 200 path into a writer that
// discards it.
func BenchmarkWriteResponse(b *testing.B) {
	outs, _ := lubmOutcomes(b)
	out := outs["Q10"]
	h := New(Backend{Query: func(context.Context, string, int, int) (*QueryOutcome, error) { return out, nil }}, Options{})
	w := &discardWriter{h: http.Header{}}
	body, err := appendResponse(nil, out, time.Millisecond, false)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.writeOutcome(w, out, time.Millisecond, false)
	}
}

// BenchmarkDecodeResponse times the client's decode layer on its own:
// the Q10 LUBM body BenchmarkWriteResponse encodes, through client.Query
// over an in-memory transport (hand), and the same bytes through
// json.NewDecoder, the decoder Query used before (json).
func BenchmarkDecodeResponse(b *testing.B) {
	outs, _ := lubmOutcomes(b)
	body, err := appendResponse(nil, outs["Q10"], time.Millisecond, false)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hand", func(b *testing.B) {
		c := bodyClient(body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := c.Query(context.Background(), "SELECT ?x WHERE { ?x <p> ?y }", client.QueryOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Answers) != len(outs["Q10"].Answers) {
				b.Fatalf("decoded %d answers, want %d", len(resp.Answers), len(outs["Q10"].Answers))
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var resp client.QueryResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
