package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace()
	sp := tr.Phase("cluster")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := sp.Child(fmt.Sprintf("align[%d]", i))
			c.Set("retrieved", int64(i))
			c.End()
		}(i)
	}
	wg.Wait()
	sp.Set("kept", 12)
	sp.End()
	tr.Phase("search").End()
	tr.Finish()

	if len(tr.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(tr.Phases))
	}
	if len(sp.Children) != 4 {
		t.Errorf("children = %d, want 4", len(sp.Children))
	}
	if sp.Attrs["kept"] != 12 {
		t.Errorf("attr kept = %d, want 12", sp.Attrs["kept"])
	}
	if tr.Total <= 0 {
		t.Error("trace total not stamped")
	}
	if tr.Phases[0].Name != "cluster" || tr.Phases[0].Duration <= 0 {
		t.Error("cluster phase duration not stamped")
	}

	// End is idempotent: re-ending does not grow the duration.
	d := sp.Duration
	time.Sleep(time.Millisecond)
	sp.End()
	if sp.Duration != d {
		t.Error("second End changed the duration")
	}

	// Nil trace and span are inert.
	var nt *Trace
	ns := nt.Phase("x")
	ns.Set("k", 1)
	ns.Child("y").End()
	ns.End()
	nt.Finish()
}

// TestSpanEndIdempotentOnZeroDuration guards the explicit ended flag:
// a first End whose measured duration is 0 (coarse clock granularity)
// must still win over a later End.
func TestSpanEndIdempotentOnZeroDuration(t *testing.T) {
	s := &Span{Name: "z", start: time.Now()}
	s.End()
	s.Duration = 0 // simulate a clock too coarse to see the span
	time.Sleep(time.Millisecond)
	s.End()
	if s.Duration != 0 {
		t.Errorf("second End overwrote the first: duration = %v, want 0", s.Duration)
	}
}

func TestTraceWriteTable(t *testing.T) {
	tr := NewTrace()
	sp := tr.Phase("decompose")
	sp.Set("paths", 3)
	sp.End()
	cl := tr.Phase("cluster")
	cl.Child("align[0]").End()
	cl.End()
	tr.IO = IOStats{PageReads: 10, CacheHits: 8, CacheMisses: 2}
	tr.Answers = 5
	tr.Partial = true
	tr.StopReason = "deadline exceeded"
	tr.Finish()

	var sb strings.Builder
	tr.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{
		"phase", "duration", "detail",
		"decompose", "paths=3",
		"cluster", "align[0]",
		"reads=10 hits=8 misses=2\n",
		"total", "answers=5", `partial="deadline exceeded"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.Phase("search").End()
	tr.Answers = 2
	tr.Finish()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	back := &Trace{}
	if err := json.Unmarshal(b, back); err != nil {
		t.Fatal(err)
	}
	if len(back.Phases) != 1 || back.Phases[0].Name != "search" || back.Answers != 2 {
		t.Errorf("round trip lost data: phases=%d answers=%d", len(back.Phases), back.Answers)
	}
}

func TestQueryLogRing(t *testing.T) {
	l := NewQueryLog(3)
	if got := l.Snapshot(); len(got) != 0 {
		t.Errorf("empty log snapshot has %d entries", len(got))
	}
	var ts []*Trace
	for i := 0; i < 5; i++ {
		tr := NewTrace()
		tr.Answers = i
		ts = append(ts, tr)
		l.Add(tr)
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot = %d entries, want 3", len(got))
	}
	// Most recent first: answers 4, 3, 2.
	for i, want := range []int{4, 3, 2} {
		if got[i].Answers != want {
			t.Errorf("snapshot[%d].Answers = %d, want %d", i, got[i].Answers, want)
		}
	}
	l.Add(nil) // ignored
	if len(l.Snapshot()) != 3 {
		t.Error("nil trace was recorded")
	}
	var nl *QueryLog
	nl.Add(ts[0])
	if nl.Snapshot() != nil {
		t.Error("nil log has entries")
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sama_queries_total", "h").Inc()
	log := NewQueryLog(4)
	tr := NewTrace()
	tr.Phase("search").End()
	tr.Finish()
	log.Add(tr)

	mux := DebugMux(reg, log)
	// The mux serves exactly these routes: every probe resolves to the
	// pattern listed beside it, and a path no route claims (a deleted
	// endpoint included) falls through to the index's catch-all.
	routes := map[string]string{
		"/metrics":             "/metrics",
		"/debug/vars":          "/debug/vars",
		"/debug/lastqueries":   "/debug/lastqueries",
		"/debug/pprof/":        "/debug/pprof/",
		"/debug/pprof/heap":    "/debug/pprof/",
		"/debug/pprof/cmdline": "/debug/pprof/cmdline",
		"/debug/pprof/profile": "/debug/pprof/profile",
		"/debug/pprof/symbol":  "/debug/pprof/symbol",
		"/debug/pprof/trace":   "/debug/pprof/trace",
		"/":                    "/",
		"/debug/events":        "/",
		"/debug/":              "/",
		"/debug/x":             "/",
		"/nope":                "/",
	}
	for path, want := range routes {
		if _, got := mux.Handler(httptest.NewRequest("GET", path, nil)); got != want {
			t.Errorf("%s routes to %q, want %q", path, got, want)
		}
	}

	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "sama_queries_total 1") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/debug/lastqueries"); code != 200 {
		t.Errorf("/debug/lastqueries: code %d", code)
	} else {
		var traces []Trace
		if err := json.Unmarshal([]byte(body), &traces); err != nil || len(traces) != 1 {
			t.Errorf("/debug/lastqueries: %v (%d traces)", err, len(traces))
		}
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars: code %d", code)
		_ = body
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code %d body %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path: code %d, want 404", code)
	}
}
