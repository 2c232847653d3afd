package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// explainTestTrace builds a trace shaped like a real query's, with
// nondeterministic fields (durations, trace ID, pool hits) populated so
// the tests can prove the plan excludes them.
func explainTestTrace() *Trace {
	tr := NewTrace()
	tr.Query = "SELECT ?x WHERE { ... }"
	sp := tr.Phase("decompose")
	sp.Set("query_paths", 2)
	sp.End()
	sp = tr.Phase("cluster")
	for i, attrs := range []map[string]int64{
		{"preranked": 7, "memo_hits": 0, "aligned": 7, "batched_pages": 3, "retrieved": 9, "kept": 7},
		{"preranked": 4, "memo_hits": 2, "aligned": 2, "batched_pages": 1, "retrieved": 4, "kept": 4},
	} {
		c := sp.Child("align[" + string(rune('0'+i)) + "]")
		for k, v := range attrs {
			c.Set(k, v)
		}
		c.End()
	}
	sp.Set("retrieved", 13)
	sp.Set("kept", 11)
	sp.End()
	sp = tr.Phase("search")
	sp.Set("visited", 42)
	sp.Set("joined", 17)
	sp.End()
	sp = tr.Phase("assemble")
	sp.Set("answers", 5)
	sp.End()
	tr.Answers = 5
	tr.IO = IOStats{PageReads: 12, CacheHits: 9, CacheMisses: 3}
	tr.Finish()
	return tr
}

func TestBuildPlanDeterministic(t *testing.T) {
	// Two traces of the same execution differ in everything
	// nondeterministic: IDs, timings, I/O splits. Their plans must be
	// byte-identical.
	a, _ := json.Marshal(BuildPlan(explainTestTrace()))
	time.Sleep(2 * time.Millisecond) // skew the second trace's clocks
	b, _ := json.Marshal(BuildPlan(explainTestTrace()))
	if !bytes.Equal(a, b) {
		t.Errorf("plans differ across identical executions:\n%s\n%s", a, b)
	}
	for _, banned := range []string{"duration", "offset", "trace_id", "begin", "total", "page_reads"} {
		if strings.Contains(string(a), banned) {
			t.Errorf("plan JSON leaks nondeterministic field %q:\n%s", banned, a)
		}
	}
}

func TestBuildPlanShape(t *testing.T) {
	p := BuildPlan(explainTestTrace())
	if p.Version != PlanVersion || p.Answers != 5 {
		t.Fatalf("plan header = %+v", p)
	}
	if len(p.Phases) != 4 || p.Phases[1].Name != "cluster" {
		t.Fatalf("phases = %+v", p.Phases)
	}
	if len(p.Phases[1].Children) != 2 {
		t.Fatalf("cluster children = %+v", p.Phases[1].Children)
	}
	if got := p.Phases[1].Children[0].Attrs["batched_pages"]; got != 3 {
		t.Errorf("align[0].batched_pages = %d, want 3", got)
	}
	if BuildPlan(nil) != nil {
		t.Error("BuildPlan(nil) != nil")
	}
}

func TestPlanWriteTextGolden(t *testing.T) {
	tr := explainTestTrace()
	tr.Partial = true
	tr.StopReason = "deadline exceeded"
	var buf bytes.Buffer
	BuildPlan(tr).WriteText(&buf)
	want := `plan v2 answers=5 partial="deadline exceeded"
  decompose query_paths=2
  cluster kept=11 retrieved=13
    align[0] aligned=7 batched_pages=3 kept=7 memo_hits=0 preranked=7 retrieved=9
    align[1] aligned=2 batched_pages=1 kept=4 memo_hits=2 preranked=4 retrieved=4
  search joined=17 visited=42
  assemble answers=5
`
	if buf.String() != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestChromeTraceExport(t *testing.T) {
	var buf bytes.Buffer
	WriteChromeTrace(&buf, []*Trace{explainTestTrace()})
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%s", err, buf.String())
	}
	var haveMeta, haveQuery, haveAlign bool
	for _, ev := range doc.TraceEvents {
		switch ev["name"] {
		case "process_name":
			haveMeta = true
		case "query":
			haveQuery = true
		case "align[0]":
			haveAlign = true
		}
	}
	if !haveMeta || !haveQuery || !haveAlign {
		t.Errorf("chrome trace missing events (meta=%v query=%v align=%v):\n%s",
			haveMeta, haveQuery, haveAlign, buf.String())
	}
	// Empty input still yields a valid document.
	buf.Reset()
	WriteChromeTrace(&buf, nil)
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome trace invalid: %v", err)
	}
}

// TestChromeTraceLanesUnique pins the lane allocator: fanned-out
// children in *different* subtrees must land on distinct lanes, not
// collide because each parent numbered its children relative to its
// own tid (two depth-1 siblings with children would both claim lanes
// 1 and 2, rendering as a broken stack in Perfetto).
func TestChromeTraceLanesUnique(t *testing.T) {
	tr := NewTrace()
	for _, ph := range []string{"cluster", "search"} {
		sp := tr.Phase(ph)
		for i := 0; i < 2; i++ {
			c := sp.Child("fan")
			c.End()
		}
		sp.End()
	}
	tr.Finish()
	var buf bytes.Buffer
	WriteChromeTrace(&buf, []*Trace{tr})
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%s", err, buf.String())
	}
	lanes := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name != "fan" {
			continue
		}
		if ev.TID == 0 {
			t.Error("fanned-out child on lane 0 (the phase track)")
		}
		if lanes[ev.TID] {
			t.Errorf("lane %d assigned to two fanned-out children", ev.TID)
		}
		lanes[ev.TID] = true
	}
	if len(lanes) != 4 {
		t.Fatalf("expected 4 distinct child lanes, got %d: %v", len(lanes), lanes)
	}
}
