package sama_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sama"
)

var updateGolden = flag.Bool("update", false, "rewrite the explain golden files from the observed output")

// TestExplainGolden pins the explain rendering: the plan for the
// Figure 1 query over a freshly built index must match the golden files
// byte for byte, and two independent builds of the same index must
// produce byte-identical plans (the determinism contract that makes the
// golden meaningful).
func TestExplainGolden(t *testing.T) {
	plan := func() (*sama.Plan, string, string) {
		db := obsTestDB(t)
		_, p, err := db.Explain(context.Background(), obsTestQuery, 5)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		p.WriteText(&text)
		js, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return p, text.String(), string(js) + "\n"
	}
	_, text1, js1 := plan()
	_, text2, js2 := plan()
	if text1 != text2 || js1 != js2 {
		t.Fatalf("plans differ across independent builds of the same index:\n%s\nvs\n%s", text1, text2)
	}

	checkGolden := func(name, got string) {
		t.Helper()
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test -run TestExplainGolden -update .` to create it)", err)
		}
		if got != string(want) {
			t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
	checkGolden("explain_fig1.golden", text1)
	checkGolden("explain_fig1.json.golden", js1)
}

// TestExplainCLIServerParity is the acceptance check that `sama query
// -explain-json` and the server's ?explain=1 return the same plan: the
// explain document in the HTTP response must be byte-identical (after
// whitespace normalisation, which the response encoder controls) to the
// locally built plan's JSON.
func TestExplainCLIServerParity(t *testing.T) {
	db := obsTestDB(t)
	_, localPlan, err := db.Explain(context.Background(), obsTestQuery, 5)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := json.Marshal(localPlan)
	if err != nil {
		t.Fatal(err)
	}

	// The local run above warmed the alignment memo; reset to cold so
	// the server's run sees the same engine state and produces the same
	// plan counters (aligned vs memo_hits).
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(db.Handler(sama.ServerOptions{}))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/query?k=5&explain=1", "application/sparql-query", strings.NewReader(obsTestQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var wire struct {
		Explain json.RawMessage `json:"explain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Explain) == 0 {
		t.Fatal("?explain=1 response has no explain field")
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, wire.Explain); err != nil {
		t.Fatal(err)
	}
	if compact.String() != string(localJSON) {
		t.Errorf("server plan differs from local plan:\nserver: %s\nlocal:  %s", compact.String(), localJSON)
	}

	// Without the parameter the field must be absent.
	resp2, err := srv.Client().Post(srv.URL+"/query?k=5", "application/sparql-query", strings.NewReader(obsTestQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var wire2 struct {
		Explain json.RawMessage `json:"explain"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&wire2); err != nil {
		t.Fatal(err)
	}
	if len(wire2.Explain) != 0 {
		t.Error("explain field present without ?explain=1")
	}
}

// TestChromeTraceEndpoint checks the ?format=chrome export end to end:
// valid Chrome trace JSON whose events reference the recorded query.
func TestChromeTraceEndpoint(t *testing.T) {
	db := obsTestDB(t)
	if _, err := db.QuerySPARQL(obsTestQuery, 5); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	body := httpGet(t, srv.Client(), srv.URL+"/debug/lastqueries?format=chrome")
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"query", "decompose", "cluster", "search", "assemble"} {
		if !names[want] {
			t.Errorf("chrome export missing %q event (have %v)", want, names)
		}
	}
}
