package workload

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sama/internal/sparql"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/queries_parsed.golden from the observed parses")

// fig1Sources are the paper's Fig. 1 queries as SPARQL text: Q1 and Q2
// of the running GovTrack example, and the two-pattern query the explain
// goldens run.
var fig1Sources = []struct{ id, src string }{
	{"fig1-Q1", `PREFIX gov: <http://govtrack.example.org/>
SELECT ?v1 ?v2 ?v3 WHERE {
  gov:CarlaBunes gov:sponsor ?v1 .
  ?v1 gov:aTo ?v2 .
  ?v2 gov:subject "Health Care" .
  ?v3 gov:sponsor ?v2 .
  ?v3 gov:gender "Male" .
}`},
	{"fig1-Q2", `SELECT ?v2 ?v3 WHERE { ?v3 <gender> "Male" ; <sponsor> ?v2 . ?v2 ?e1 "Health Care" } LIMIT 5`},
	{"fig1-explain", `SELECT ?x ?y WHERE { ?x <sponsor> ?y . ?x <gender> "Male" }`},
}

// TestQueriesParsedGolden pins what the SPARQL front-end makes of every
// workload query: projection, LIMIT and the triple list in textual
// order. The golden was written by the three-lexer parser that preceded
// the shared scanner; a parser change must reproduce it byte for byte.
func TestQueriesParsedGolden(t *testing.T) {
	type source struct{ id, src string }
	var all []source
	for _, q := range LUBMQueries() {
		all = append(all, source{q.ID, q.SPARQL})
	}
	for hops := 1; hops <= 8; hops++ {
		q := ChainQuery(hops)
		all = append(all, source{q.ID, q.SPARQL})
	}
	for n := 1; n <= 7; n++ {
		q := VarSweepQuery(n)
		all = append(all, source{q.ID, q.SPARQL})
	}
	for _, f := range fig1Sources {
		all = append(all, source{f.id, f.src})
	}

	var b strings.Builder
	for _, s := range all {
		q, err := sparql.Parse(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.id, err)
		}
		fmt.Fprintf(&b, "%s select=%v distinct=%v limit=%d\n", s.id, q.Select, q.Distinct, q.Limit)
		for _, tr := range q.Triples {
			fmt.Fprintf(&b, "  %s\n", tr)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "queries_parsed.golden")
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
		t.Fatalf("%v (run `go test ./internal/workload -run TestQueriesParsedGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("parsed queries differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
