package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sama/client"
	"sama/internal/core"
	"sama/internal/obs"
	"sama/internal/rdf"
)

// testOutcome builds a one-answer outcome binding ?x, mimicking what the
// engine returns.
func testOutcome(partial bool) *QueryOutcome {
	out := &QueryOutcome{
		Answers: []core.Answer{{
			Score: 1.5, Lambda: 1, Psi: 0.5,
			Subst: rdf.Substitution{"x": rdf.NewIRI("alice")},
		}},
		Vars:  []string{"x"},
		Stats: core.QueryStats{QueryPaths: 1, Extracted: 3, Elapsed: time.Millisecond},
	}
	if partial {
		out.Partial = true
		out.StopReason = "cancelled"
	}
	return out
}

func TestQueryEndpointBasic(t *testing.T) {
	reg := obs.NewRegistry()
	h := New(Backend{
		Metrics: reg,
		Query: func(ctx context.Context, src string, k, _ int) (*QueryOutcome, error) {
			if src != "SELECT ?x WHERE { ?x <knows> <bob> }" {
				t.Errorf("backend saw src %q", src)
			}
			if k != 3 {
				t.Errorf("backend saw k = %d, want 3", k)
			}
			return testOutcome(false), nil
		},
	}, Options{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := client.New(ts.URL)
	resp, err := c.Query(context.Background(), "SELECT ?x WHERE { ?x <knows> <bob> }",
		client.QueryOptions{K: 3, Timeout: time.Second})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("got %d answers, want 1", len(resp.Answers))
	}
	a := resp.Answers[0]
	if a.Score != 1.5 || a.Lambda != 1 || a.Psi != 0.5 {
		t.Errorf("answer scores = %+v", a)
	}
	if got := a.Bindings["x"]; got != "<alice>" {
		t.Errorf("binding x = %q, want <alice>", got)
	}
	if resp.Stats.QueryPaths != 1 || resp.Stats.Extracted != 3 {
		t.Errorf("stats = %+v", resp.Stats)
	}
	if resp.Stats.QueueNS < 0 {
		t.Errorf("queue wait = %d", resp.Stats.QueueNS)
	}
	if err := c.Healthz(context.Background()); err != nil {
		t.Errorf("Healthz: %v", err)
	}
	if err := c.Readyz(context.Background()); err != nil {
		t.Errorf("Readyz: %v", err)
	}
}

func TestQueryValidation(t *testing.T) {
	h := New(Backend{
		Query: func(ctx context.Context, src string, k, _ int) (*QueryOutcome, error) {
			switch src {
			case "bad":
				return nil, &BadRequestError{Err: fmt.Errorf("parse error at 1")}
			case "broken":
				return nil, errors.New("index unreadable")
			}
			return testOutcome(false), nil
		},
	}, Options{MaxBodyBytes: 64})
	ts := httptest.NewServer(h)
	defer ts.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/sparql-query", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp
	}
	if resp, err := http.Get(ts.URL + "/query"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query = %v, want 405", resp.StatusCode)
	} else if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q", allow)
	}
	if resp := post("/query", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body = %d, want 400", resp.StatusCode)
	}
	if resp := post("/query?k=zero", "q"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad k = %d, want 400", resp.StatusCode)
	}
	if resp := post("/query?k=-2", "q"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative k = %d, want 400", resp.StatusCode)
	}
	if resp := post("/query?timeout=fast", "q"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout = %d, want 400", resp.StatusCode)
	}
	if resp := post("/query", strings.Repeat("x", 100)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}
	if resp := post("/query", "bad"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("backend BadRequestError = %d, want 400", resp.StatusCode)
	}
	// Any other backend failure is a 500 whose JSON body carries the
	// backend's message.
	resp, err := http.Post(ts.URL+"/query", "application/sparql-query", strings.NewReader("broken"))
	if err != nil {
		t.Fatalf("POST broken: %v", err)
	}
	var er client.ErrorResponse
	derr := json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || derr != nil || er.Error != "index unreadable" {
		t.Errorf("backend error = %d %+v (decode: %v), want 500 with its message", resp.StatusCode, er, derr)
	}
	if resp := post("/query", "q"); resp.StatusCode != http.StatusOK {
		t.Errorf("valid query = %d, want 200", resp.StatusCode)
	}
}

// metricValue extracts one sample from a Prometheus text exposition.
func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(sample)+1:], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not found in metrics:\n%s", sample, text)
	return 0
}

// TestOverloadSheds is the acceptance scenario: with max-inflight=2 and
// a queue of 2, a burst of 8 concurrent slow queries yields exactly 2
// running + 2 queued, the other 4 receive 503 with Retry-After, and the
// /metrics families agree with the observed counts.
func TestOverloadSheds(t *testing.T) {
	gate := make(chan struct{})
	var running, peak atomic.Int64
	reg := obs.NewRegistry()
	h := New(Backend{
		Metrics: reg,
		Debug:   obs.DebugMux(reg, nil),
		Query: func(ctx context.Context, src string, k, _ int) (*QueryOutcome, error) {
			n := running.Add(1)
			defer running.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			select {
			case <-gate:
				return testOutcome(false), nil
			case <-ctx.Done():
				return testOutcome(true), nil
			}
		},
	}, Options{
		MaxInflight: 2, MaxQueue: 2,
		QueueTimeout: 10 * time.Second, DefaultTimeout: 30 * time.Second,
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := client.New(ts.URL)

	type result struct {
		resp *client.QueryResponse
		err  error
	}
	results := make(chan result, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := c.Query(context.Background(), "q", client.QueryOptions{})
			results <- result{resp, err}
		}()
	}

	// The 4 requests beyond slots+queue are shed immediately.
	var shed int
	for shed < 4 {
		select {
		case r := <-results:
			if r.err == nil {
				t.Fatalf("got a success while the gate is closed: %+v", r.resp)
			}
			if !client.IsOverloaded(r.err) {
				t.Fatalf("shed error = %v, want 503", r.err)
			}
			var se *client.StatusError
			if !asStatus(r.err, &se) || se.RetryAfter < time.Second {
				t.Fatalf("shed response missing Retry-After: %v", r.err)
			}
			shed++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d shed responses after 5s", shed)
		}
	}

	// Steady state: exactly 2 running, 2 queued — both directly and on
	// /metrics.
	waitFor(t, func() bool { r, q := h.adm.counts(); return r == 2 && q == 2 })
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if v := metricValue(t, text, "sama_server_inflight"); v != 2 {
		t.Errorf("sama_server_inflight = %g, want 2", v)
	}
	if v := metricValue(t, text, "sama_server_queued"); v != 2 {
		t.Errorf("sama_server_queued = %g, want 2", v)
	}
	if v := metricValue(t, text, `sama_server_shed_total{reason="queue_full"}`); v != 4 {
		t.Errorf("shed_total = %g, want 4", v)
	}

	// Open the gate: the 2 running and the 2 queued all complete.
	close(gate)
	for i := 0; i < 4; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("queued/running query failed: %v", r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queries did not complete after the gate opened")
		}
	}
	if p := peak.Load(); p != 2 {
		t.Errorf("peak concurrent executions = %d, want exactly 2", p)
	}
	text, err = c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if v := metricValue(t, text, "sama_server_admitted_total"); v != 4 {
		t.Errorf("admitted_total = %g, want 4", v)
	}
	if v := metricValue(t, text, `sama_server_requests_total{code="200"}`); v != 4 {
		t.Errorf("requests_total{200} = %g, want 4", v)
	}
	if v := metricValue(t, text, "sama_server_inflight"); v != 0 {
		t.Errorf("sama_server_inflight after completion = %g, want 0", v)
	}
}

func asStatus(err error, target **client.StatusError) bool {
	se, ok := err.(*client.StatusError)
	if ok {
		*target = se
	}
	return ok
}

func TestQueueTimeoutSheds(t *testing.T) {
	gate := make(chan struct{})
	h := New(Backend{
		Metrics: obs.NewRegistry(),
		Query: func(ctx context.Context, src string, k, _ int) (*QueryOutcome, error) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return testOutcome(false), nil
		},
	}, Options{MaxInflight: 1, MaxQueue: 1, QueueTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer close(gate) // unblock the blocker before ts.Close waits on it
	c := client.New(ts.URL)

	go c.Query(context.Background(), "blocker", client.QueryOptions{})
	waitFor(t, func() bool { return h.Inflight() == 1 })
	_, err := c.Query(context.Background(), "queued", client.QueryOptions{})
	if !client.IsOverloaded(err) {
		t.Fatalf("queued query = %v, want 503 after queue timeout", err)
	}
}

// TestNoQueueShedsWhenSaturated: MaxQueue 0 takes the default queue,
// a negative MaxQueue means none — with the one slot busy, the next
// request is shed at once as queue_full instead of waiting.
func TestNoQueueShedsWhenSaturated(t *testing.T) {
	for _, tc := range []struct{ maxQueue, want int }{{0, 4}, {3, 3}, {-1, 0}} {
		if got := New(Backend{Query: func(context.Context, string, int, int) (*QueryOutcome, error) { return nil, nil }},
			Options{MaxInflight: 2, MaxQueue: tc.maxQueue}).adm.maxQueue; got != tc.want {
			t.Errorf("MaxQueue %d: queue bound %d, want %d", tc.maxQueue, got, tc.want)
		}
	}

	gate := make(chan struct{})
	reg := obs.NewRegistry()
	h := New(Backend{
		Metrics: reg,
		Query: func(ctx context.Context, src string, k, _ int) (*QueryOutcome, error) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return testOutcome(false), nil
		},
	}, Options{MaxInflight: 1, MaxQueue: -1, QueueTimeout: 10 * time.Second})
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer close(gate) // unblock the blocker before ts.Close waits on it
	c := client.New(ts.URL)

	go c.Query(context.Background(), "blocker", client.QueryOptions{})
	waitFor(t, func() bool { return h.Inflight() == 1 })
	start := time.Now()
	if _, err := c.Query(context.Background(), "shed", client.QueryOptions{}); !client.IsOverloaded(err) {
		t.Fatalf("second query = %v, want 503", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("shed after %v: the request queued", waited)
	}
	if v := reg.Counter("sama_server_shed_total", "", "reason", obs.ShedQueueFull).Value(); v != 1 {
		t.Errorf("shed_total{queue_full} = %d, want 1", v)
	}
}

// TestClientDisconnectCancelsQuery: a client that goes away after its
// query started cancels the backend's context — not its deadline, which
// is a minute off — and the execution slot comes back.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	started := make(chan struct{})
	stopped := make(chan error, 1)
	h := New(Backend{
		Query: func(ctx context.Context, src string, k, _ int) (*QueryOutcome, error) {
			close(started)
			<-ctx.Done()
			stopped <- ctx.Err()
			return testOutcome(true), nil
		},
	}, Options{MaxInflight: 1, DefaultTimeout: time.Minute, MaxTimeout: time.Minute})
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := client.New(ts.URL).Query(ctx, "q", client.QueryOptions{})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("backend context ended with %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("backend context still live after the client disconnected")
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("client error = %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return h.Inflight() == 0 })
}

// TestDrainReturnsInflightResults: shutdown during in-flight queries
// lets them finish (here: cancels them past the drain deadline and they
// return partial best-so-far answers) while new work is refused.
func TestDrainReturnsInflightResults(t *testing.T) {
	reg := obs.NewRegistry()
	h := New(Backend{
		Metrics: reg,
		Query: func(ctx context.Context, src string, k, _ int) (*QueryOutcome, error) {
			<-ctx.Done() // a long query: only the deadline/drain stops it
			return testOutcome(true), nil
		},
	}, Options{MaxInflight: 2, DefaultTimeout: time.Minute, MaxTimeout: time.Minute})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := client.New(ts.URL)

	type result struct {
		resp *client.QueryResponse
		err  error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := c.Query(context.Background(), "slow", client.QueryOptions{})
			results <- result{resp, err}
		}()
	}
	waitFor(t, func() bool { return h.Inflight() == 2 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		shutdownErr <- h.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return h.Draining() })

	// While draining: not ready, and new queries are shed.
	if err := c.Readyz(context.Background()); !client.IsOverloaded(err) {
		t.Errorf("Readyz while draining = %v, want 503", err)
	}
	if _, err := c.Query(context.Background(), "late", client.QueryOptions{}); !client.IsOverloaded(err) {
		t.Errorf("query while draining = %v, want 503", err)
	}

	// The in-flight queries come back with their partial results.
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("in-flight query during drain: %v", r.err)
			}
			if !r.resp.Partial {
				t.Errorf("in-flight result not marked partial: %+v", r.resp)
			}
			if len(r.resp.Answers) != 1 {
				t.Errorf("partial result lost its answers: %+v", r.resp)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight queries did not return during drain")
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownRacesInflight hammers the server with queries while a
// shutdown runs concurrently; under -race this exercises the
// admission/drain interleavings. Every request must get a definite
// response: 200 (possibly partial) or 503.
func TestShutdownRacesInflight(t *testing.T) {
	h := New(Backend{
		Metrics: obs.NewRegistry(),
		Query: func(ctx context.Context, src string, k, _ int) (*QueryOutcome, error) {
			select {
			case <-time.After(time.Millisecond):
				return testOutcome(false), nil
			case <-ctx.Done():
				return testOutcome(true), nil
			}
		},
	}, Options{MaxInflight: 4, MaxQueue: 4, QueueTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := client.New(ts.URL)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, err := c.Query(context.Background(), "q", client.QueryOptions{})
				if err != nil && !client.IsOverloaded(err) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := h.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	wg.Wait()
	if n := h.Inflight(); n != 0 {
		t.Errorf("inflight after shutdown = %d", n)
	}
}

// TestServeListener exercises the real TCP wrapper: bind, query, drain.
func TestServeListener(t *testing.T) {
	h := New(Backend{
		Metrics: obs.NewRegistry(),
		Query: func(ctx context.Context, src string, k, _ int) (*QueryOutcome, error) {
			return testOutcome(false), nil
		},
	}, Options{})
	s, err := h.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	c := client.New("http://" + s.Addr())
	if _, err := c.Query(context.Background(), "q", client.QueryOptions{}); err != nil {
		t.Fatalf("Query over TCP: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := c.Healthz(context.Background()); err == nil {
		t.Error("server still answering after Shutdown")
	}
}
