package sama

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

const govtrackNT = `
<CarlaBunes> <sponsor> <A0056> .
<A0056> <aTo> <B1432> .
<B1432> <subject> "Health Care" .
<PierceDickes> <sponsor> <B1432> .
<PierceDickes> <gender> "Male" .
<JeffRyser> <sponsor> <A1589> .
<A1589> <aTo> <B0532> .
<B0532> <subject> "Health Care" .
<JeffRyser> <gender> "Male" .
<AliceNimber> <sponsor> <B1432> .
<AliceNimber> <gender> "Female" .
`

func newTestDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	g, err := LoadNTriples(strings.NewReader(govtrackNT))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Create(filepath.Join(t.TempDir(), "db"), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestCreateAndQuerySPARQL(t *testing.T) {
	db := newTestDB(t)
	res, err := db.QuerySPARQL(`SELECT ?v1 ?v2 WHERE {
		<CarlaBunes> <sponsor> ?v1 .
		?v1 <aTo> ?v2 .
		?v2 <subject> "Health Care" .
	}`, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	top := res.Answers[0]
	if !top.Exact() {
		t.Errorf("top answer not exact: %s", top)
	}
	b := top.Bindings(res.Vars)
	if b["v1"].Value != "A0056" || b["v2"].Value != "B1432" {
		t.Errorf("bindings = %v", b)
	}
}

func TestQuerySPARQLLimit(t *testing.T) {
	db := newTestDB(t)
	res, err := db.QuerySPARQL(`SELECT ?s WHERE { ?s <gender> "Male" } LIMIT 1`, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Errorf("LIMIT 1 returned %d answers", len(res.Answers))
	}
}

func TestQuerySPARQLSelectStarVars(t *testing.T) {
	db := newTestDB(t)
	res, err := db.QuerySPARQL(`SELECT * WHERE { ?who <gender> "Male" }`, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 1 || res.Vars[0] != "who" {
		t.Errorf("Vars = %v", res.Vars)
	}
}

func TestOpenPersisted(t *testing.T) {
	g, err := LoadNTriples(strings.NewReader(govtrackNT))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "persist")
	db, err := Create(base, g)
	if err != nil {
		t.Fatal(err)
	}
	stats := db.Stats()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Stats().Paths != stats.Paths {
		t.Errorf("paths after reopen: %d vs %d", db2.Stats().Paths, stats.Paths)
	}
	res, err := db2.QuerySPARQL(`SELECT ?x WHERE { ?x <gender> "Female" }`, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Error("reopened db found nothing")
	}
}

// leaveShardedLayout writes the manifest an older build's sharded layout
// kept at base.shards/manifest.json.
func leaveShardedLayout(t *testing.T, base string) string {
	t.Helper()
	dir := base + ".shards"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest.json")
	if err := writeFile(manifest, `{"version":1,"shards":2,"partitioner":"hash"}`); err != nil {
		t.Fatal(err)
	}
	return manifest
}

// TestOpenIgnoresLeftoverShardedLayout: a base.shards/ directory left
// next to a freshly created index neither shadows it on Open nor is
// deleted by Create.
func TestOpenIgnoresLeftoverShardedLayout(t *testing.T) {
	g, err := LoadNTriples(strings.NewReader(govtrackNT))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "db")
	manifest := leaveShardedLayout(t, base)
	db, err := Create(base, g)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Stats().Paths
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Stats().Paths; got != want || got == 0 {
		t.Errorf("reopened index has %d paths, the fresh build had %d", got, want)
	}
	if _, err := os.Stat(manifest); err != nil {
		t.Errorf("Create removed the user's %s: %v", manifest, err)
	}
}

// TestOpenRejectsShardedLayout: a base that holds only a sharded layout
// is refused with an error that says what it is and what to do about it.
func TestOpenRejectsShardedLayout(t *testing.T) {
	base := filepath.Join(t.TempDir(), "db")
	leaveShardedLayout(t, base)
	_, err := Open(base)
	if err == nil {
		t.Fatal("a sharded layout without base.meta was opened")
	}
	for _, want := range []string{"sharded layouts are no longer read", "rebuild the index from its data"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

func TestApproximateQueryNoExactAnswer(t *testing.T) {
	// Carla Bunes is Female; asking for her with gender Male has no
	// exact answer but must produce a ranked approximate one.
	db := newTestDB(t)
	res, err := db.QuerySPARQL(`SELECT * WHERE { <CarlaBunes> <gender> "Male" }`, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("approximate query returned nothing")
	}
	if res.Answers[0].Exact() {
		t.Error("impossible query reported an exact answer")
	}
	if res.Answers[0].Score <= 0 {
		t.Errorf("approximate answer score = %v, want > 0", res.Answers[0].Score)
	}
}

func TestDropCacheAndPoolStats(t *testing.T) {
	db := newTestDB(t, WithPoolPages(16))
	if _, err := db.QuerySPARQL(`SELECT ?x WHERE { ?x <gender> "Male" }`, 5); err != nil {
		t.Fatal(err)
	}
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	before := db.PoolStats()
	if _, err := db.QuerySPARQL(`SELECT ?x WHERE { ?x <gender> "Male" }`, 5); err != nil {
		t.Fatal(err)
	}
	after := db.PoolStats()
	if after.Misses <= before.Misses {
		t.Error("cold query hit no disk")
	}
}

func TestOptionsApply(t *testing.T) {
	th := NewThesaurus()
	th.Add("sponsor", "backer")
	db := newTestDB(t,
		WithParams(Params{A: 2, B: 1, C: 4, D: 2, E: 1}),
		WithThesaurus(th),
		WithPathConfig(PathConfig{MaxLength: 8, MaxPerRoot: 100}),
		WithSearchBudget(64, 1000),
	)
	// The thesaurus lets "backer" reach sponsor edges.
	res, err := db.QuerySPARQL(`SELECT ?x ?y WHERE { ?x <backer> ?y }`, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Error("thesaurus option not applied")
	}
}

func TestInvalidParamsRejected(t *testing.T) {
	g, err := LoadNTriples(strings.NewReader(govtrackNT))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "db")
	db, err := Create(base, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"negative", Params{A: -1, B: 0.5, C: 2, D: 1, E: 1}},
		{"NaN", Params{A: 1, B: math.NaN(), C: 2, D: 1, E: 1}},
		{"+Inf", Params{A: 1, B: 0.5, C: 2, D: 1, E: math.Inf(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if db, err := Create(filepath.Join(t.TempDir(), "db"), g, WithParams(tc.p)); err == nil {
				db.Close()
				t.Errorf("Create accepted %+v", tc.p)
			}
			if db, err := Open(base, WithParams(tc.p)); err == nil {
				db.Close()
				t.Errorf("Open accepted %+v", tc.p)
			}
		})
	}
}

func TestDescribeQueryCutsOnRuneBoundary(t *testing.T) {
	// The literal's "é" takes bytes 119 and 120: a cut at byte 120
	// would split it.
	src := `SELECT ?x WHERE { ?x <name> "` + strings.Repeat("a", 90) + `é" }`
	if i := strings.Index(src, "é"); i != 119 {
		t.Fatalf("é starts at byte %d, want 119", i)
	}
	desc := describeQuery(src)
	quoted, ok := strings.CutPrefix(desc, "query ")
	if !ok {
		t.Fatalf("description %q lacks the query prefix", desc)
	}
	got, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	if !utf8.ValidString(got) || !strings.HasSuffix(got, "a…") {
		t.Errorf("description %q is not cut before the é", got)
	}
}

func TestQuerySPARQLDistinct(t *testing.T) {
	db := newTestDB(t)
	// Without DISTINCT, several combinations bind ?who identically.
	plain, err := db.QuerySPARQL(`SELECT ?who WHERE {
		?who <sponsor> ?what .
		?what <subject> "Health Care" .
	}`, 20)
	if err != nil {
		t.Fatal(err)
	}
	distinct, err := db.QuerySPARQL(`SELECT DISTINCT ?who WHERE {
		?who <sponsor> ?what .
		?what <subject> "Health Care" .
	}`, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(distinct.Answers) > len(plain.Answers) {
		t.Error("DISTINCT produced more answers than plain")
	}
	seen := map[string]bool{}
	for _, a := range distinct.Answers {
		key := a.Subst["who"].String()
		if seen[key] {
			t.Errorf("duplicate projected binding %s under DISTINCT", key)
		}
		seen[key] = true
	}
	// Order preserved: scores non-decreasing.
	for i := 1; i < len(distinct.Answers); i++ {
		if distinct.Answers[i].Score < distinct.Answers[i-1].Score {
			t.Error("DISTINCT broke ranking order")
		}
	}
	// A LIMIT whose fourfold over-fetch overflows int fetches as much
	// as no limit does: 2^62+1 must not wrap to a fetch of 4, whose
	// answers hold one ?x twice and miss the fourth.
	const q = `SELECT DISTINCT ?x WHERE { ?x <sponsor> ?y . ?x <gender> "Male" }`
	all, err := db.QuerySPARQL(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := db.QuerySPARQL(q+" LIMIT 4611686018427387905", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(huge.Answers) != len(all.Answers) {
		t.Errorf("DISTINCT with LIMIT 2^62+1: %d answers, want the %d of no limit", len(huge.Answers), len(all.Answers))
	}
}

func TestInsertIncrementally(t *testing.T) {
	db := newTestDB(t)
	// No female sponsors of B0532 initially.
	q := `SELECT ?x WHERE { ?x <sponsor> <B0532> . ?x <gender> "Female" }`
	res, err := db.QuerySPARQL(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	exactBefore := 0
	for _, a := range res.Answers {
		if a.Exact() {
			exactBefore++
		}
	}
	if exactBefore != 0 {
		t.Fatalf("unexpected exact answers before insert: %d", exactBefore)
	}
	inserted := []Triple{
		{S: NewIRI("MariaVance"), P: NewIRI("sponsor"), O: NewIRI("B0532")},
		{S: NewIRI("MariaVance"), P: NewIRI("gender"), O: NewLiteral("Female")},
	}
	if err := db.Insert(inserted); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The query above filled the alignment memo and the insert left it
	// resident: what the next query makes of it must be what a database
	// created with the inserted triples answers.
	if memo := db.CacheStats()["align"]; memo.Entries == 0 {
		t.Fatal("no memo entry survived the insert; the test needs the query before it to leave some")
	}
	g, err := LoadNTriples(strings.NewReader(govtrackNT))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range inserted {
		g.AddTriple(tr)
	}
	fresh, err := Create(filepath.Join(t.TempDir(), "fresh"), g)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.QuerySPARQL(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err = db.QuerySPARQL(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers after insert")
	}
	if len(res.Answers) != len(want.Answers) {
		t.Fatalf("%d answers after the insert, a fresh database gives %d", len(res.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if got, w := res.Answers[i].String(), want.Answers[i].String(); got != w {
			t.Errorf("answer %d after the insert:\n%s\na fresh database's:\n%s", i, got, w)
		}
	}
	// The new sponsor must be the best answer: her paths align with only
	// the surplus-suffix penalty, while everyone else mismatches gender
	// or bill.
	if got := res.Answers[0].Subst["x"].Value; got != "MariaVance" {
		t.Errorf("top answer ?x = %q, want MariaVance\n%s", got, res.Answers[0])
	}
}

func TestCompactAfterInserts(t *testing.T) {
	// The default batch copies this small index in one step; a batch of
	// one copies it path by path.
	batches := map[string]int{"full": 0, "incremental": 1}
	for name, batch := range batches {
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t)
			for i := 0; i < 3; i++ {
				if err := db.Insert([]Triple{
					{S: NewIRI("CarlaBunes"), P: NewIRI("sponsor"), O: NewIRI("X" + string(rune('0'+i)))},
				}); err != nil {
					t.Fatal(err)
				}
			}
			res1, err := db.QuerySPARQL(`SELECT ?x WHERE { ?x <gender> "Male" }`, 10)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.CompactIncremental(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
			res2, err := db.QuerySPARQL(`SELECT ?x WHERE { ?x <gender> "Male" }`, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(res1.Answers) != len(res2.Answers) {
				t.Errorf("answers changed across compaction: %d vs %d",
					len(res1.Answers), len(res2.Answers))
			}
		})
	}
}

func TestParseSPARQLHelper(t *testing.T) {
	q, err := ParseSPARQL(`SELECT ?x WHERE { ?x <p> <o> }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.EdgeCount() != 1 {
		t.Error("pattern wrong")
	}
	if _, err := ParseSPARQL(`garbage`); err == nil {
		t.Error("bad SPARQL accepted")
	}
}

func TestWriteNTriplesRoundTrip(t *testing.T) {
	g, _ := LoadNTriples(strings.NewReader(govtrackNT))
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.EdgeCount() != g.EdgeCount() {
		t.Errorf("round trip: %d vs %d triples", back.EdgeCount(), g.EdgeCount())
	}
}

func TestLoadNTriplesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.nt")
	if err := writeFile(path, govtrackNT); err != nil {
		t.Fatal(err)
	}
	g, err := LoadNTriplesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 11 {
		t.Errorf("triples = %d, want 11", g.EdgeCount())
	}
	if _, err := LoadNTriplesFile(filepath.Join(t.TempDir(), "missing.nt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadTurtleAndGraphFile(t *testing.T) {
	ttl := `@prefix ex: <http://ex.org/> .
ex:alice ex:knows ex:bob ; ex:age 30 .`
	g, err := LoadTurtle(strings.NewReader(ttl))
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 2 {
		t.Errorf("turtle triples = %d, want 2", g.EdgeCount())
	}
	dir := t.TempDir()
	ttlPath := filepath.Join(dir, "g.ttl")
	if err := os.WriteFile(ttlPath, []byte(ttl), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraphFile(ttlPath)
	if err != nil {
		t.Fatal(err)
	}
	if g2.EdgeCount() != 2 {
		t.Errorf("LoadGraphFile(.ttl) triples = %d", g2.EdgeCount())
	}
	ntPath := filepath.Join(dir, "g.nt")
	if err := os.WriteFile(ntPath, []byte("<a> <p> <b> .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g3, err := LoadGraphFile(ntPath)
	if err != nil {
		t.Fatal(err)
	}
	if g3.EdgeCount() != 1 {
		t.Errorf("LoadGraphFile(.nt) triples = %d", g3.EdgeCount())
	}
	if _, err := LoadGraphFile(filepath.Join(dir, "missing.ttl")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestScoreAndAlignCostAPI(t *testing.T) {
	q := Path{
		Nodes: []Term{NewIRI("CB"), NewVar("v1"), NewLiteral("HC")},
		Edges: []Term{NewIRI("sponsor"), NewIRI("subject")},
	}
	p := Path{
		Nodes: []Term{NewIRI("CB"), NewIRI("B1"), NewLiteral("HC")},
		Edges: []Term{NewIRI("sponsor"), NewIRI("subject")},
	}
	if got := AlignCost(p, q, DefaultParams); got != 0 {
		t.Errorf("AlignCost = %v, want 0", got)
	}
	if got := Score([]PairedPath{{Query: q, Data: p}}, DefaultParams); got != 0 {
		t.Errorf("Score = %v, want 0", got)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
