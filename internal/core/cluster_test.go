package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/rdf"
	"sama/internal/sparql"
	"sama/internal/textindex"
)

// clusterParamShapes are the five department-bound query shapes of the
// benchmark's cluster_param workload (bench/workload.go), {D} standing
// for a department IRI.
var clusterParamShapes = []struct{ id, body string }{
	{"P2", `SELECT ?s ?c WHERE {
		?s rdf:type lubm:GraduateStudent .
		?s v:takesCourse ?c .
		?s v:memberOf <{D}> . }`},
	{"P4", `SELECT ?p ?u WHERE {
		?p rdf:type lubm:FullProfessor .
		?p v:worksFor <{D}> .
		<{D}> v:subOrganizationOf ?u . }`},
	{"P5", `SELECT ?s ?p WHERE {
		?s v:advisor ?p .
		?p v:worksFor <{D}> .
		?s v:memberOf <{D}> . }`},
	{"P6", `SELECT ?pub ?p WHERE {
		?pub v:publicationAuthor ?p .
		?p rdf:type lubm:AssistantProfessor .
		?p v:worksFor <{D}> . }`},
	{"P10", `SELECT ?s ?c ?p ?u WHERE {
		?s v:takesCourse ?c .
		?p v:teacherOf ?c .
		?p v:worksFor <{D}> .
		<{D}> v:subOrganizationOf ?u . }`},
}

// clusterParamQueries instantiates every shape for every department of
// g, shape-major within a department.
func clusterParamQueries(tb testing.TB, g *rdf.Graph) []goldenQuery {
	tb.Helper()
	const prologue = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n" +
		"PREFIX lubm: <http://lubm.example.org/class/>\n" +
		"PREFIX v: <http://lubm.example.org/vocab/>\n"
	var qs []goldenQuery
	for _, t := range g.Triples() {
		if t.P.Label() != datasets.RDFType || t.O.Label() != datasets.LUBMNamespace+"class/Department" {
			continue
		}
		for _, sh := range clusterParamShapes {
			parsed, err := sparql.Parse(prologue + strings.ReplaceAll(sh.body, "{D}", t.S.Label()))
			if err != nil {
				tb.Fatalf("%s: %v", sh.id, err)
			}
			qs = append(qs, goldenQuery{id: sh.id + " " + t.S.Label(), q: parsed.Pattern})
		}
	}
	if len(qs) == 0 {
		tb.Fatal("no departments in the graph")
	}
	return qs
}

// BenchmarkClusterColdMemo times the cluster phase alone on the
// cluster_param shapes over every department of LUBM 10 k, under the
// benchmark's thesaurus and a pool a tenth of the index, with the
// alignment memo purged at the start of every iteration — retrieval,
// summaries, the counting cut, page reads, decode and alignment all
// run. `make profile` profiles this benchmark.
func BenchmarkClusterColdMemo(b *testing.B) {
	g := datasets.LUBM{}.Generate(10000, 1)
	ix, err := index.Build(filepath.Join(b.TempDir(), "lubm"), g,
		index.Options{Thesaurus: textindex.BenchmarkThesaurus(), PoolPages: 128})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	e := New(ix, Options{})
	qs := clusterParamQueries(b, g)
	pres := make([]*Preprocessed, len(qs))
	for i, gq := range qs {
		pres[i] = e.Preprocess(gq.q)
	}
	lap := func() (retrieved int) {
		e.DropCaches()
		for _, pre := range pres {
			clusters, err := e.Cluster(pre)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range clusters {
				retrieved += c.Retrieved
			}
		}
		return retrieved
	}
	retrieved := lap() // warm-up: sizes the pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
	b.ReportMetric(float64(len(qs)), "queries")
	b.ReportMetric(float64(retrieved)/float64(len(qs)), "retrieved/query")
}

// TestWarmClusterAllocatesPerKeptItem is the allocation guard of the
// cluster scratch: a cluster over a sink with 24 000 candidates, every
// pre-ranked one already in the memo, may allocate for the items it
// keeps (512 × 64 B and change) — not for the candidates it retrieved.
// The ceiling is under a quarter of the 1.3 MB a build allocated while
// retrieval, summaries and the counting cut each made their own slices
// and maps (58 KB now).
func TestWarmClusterAllocatesPerKeptItem(t *testing.T) {
	const subjects = 24000
	g := rdf.NewGraph()
	for i := 0; i < subjects; i++ {
		g.AddTriple(rdf.Triple{S: iri(fmt.Sprintf("S%05d", i)), P: iri("kind"), O: iri("Thing")})
	}
	ix, err := index.Build(filepath.Join(t.TempDir(), "wide"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	e := New(ix, Options{})
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("s"), P: iri("kind"), O: iri("Thing")})
	pre := e.Preprocess(q)
	build := func() Cluster {
		clusters, err := e.Cluster(pre)
		if err != nil {
			t.Fatal(err)
		}
		return clusters[0]
	}
	c := build() // fills the memo and sizes the scratch
	if c.Retrieved < subjects || len(c.Items) != 512 {
		t.Fatalf("retrieved %d, kept %d; want ≥ %d retrieved and 512 kept", c.Retrieved, len(c.Items), subjects)
	}
	build()

	// The cheapest of 21 builds: a build draws a fresh scratch, and
	// regrows all of it, whenever its goroutine lands on another P than
	// the one the last scratch was put back on, after a collection, and
	// on a quarter of the puts under the race detector. The guard is on
	// what a build that found a warm scratch allocates.
	const runs = 21
	var bytes, objects uint64 = 1 << 62, 1 << 62
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("warm build: %d B, %d objects (cheapest of %d; %d retrieved, %d kept)",
		bytes, objects, runs, c.Retrieved, len(c.Items))
	if bytes > 300<<10 {
		t.Errorf("warm cluster build allocates %d B; want ≤ 300 KiB (O(kept), not O(retrieved))", bytes)
	}
	if objects > 100 {
		t.Errorf("warm cluster build allocates %d objects; want ≤ 100", objects)
	}
}

// TestClusterScratchIsNotShared runs the cluster_param shapes from
// eight goroutines through one engine, each in its own order, and
// compares every ranked answer with a serial run: a pooled scratch
// slice aliased between two concurrent builds shows up as a wrong path
// ID. The tight cluster cap makes every large cluster take the counting
// cut. Runs under -race via make check's race-hot pass.
func TestClusterScratchIsNotShared(t *testing.T) {
	g := datasets.LUBM{}.Generate(4000, 3)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g,
		index.Options{Thesaurus: textindex.BenchmarkThesaurus(), PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	qs := clusterParamQueries(t, g)
	if len(qs) > 15 {
		qs = qs[:15]
	}
	run := func(e *Engine, gq goldenQuery) string {
		answers, err := e.Query(gq.q, 10)
		if err != nil {
			return "error: " + err.Error()
		}
		lines := make([]string, len(answers))
		for i, a := range answers {
			lines[i] = fingerprint(a)
		}
		return strings.Join(lines, "\n")
	}
	opts := Options{MaxCandidatesPerCluster: 16}
	serial := New(ix, opts)
	want := make([]string, len(qs))
	for i, gq := range qs {
		want[i] = run(serial, gq)
		if want[i] == "" {
			t.Fatalf("%s: no answers", gq.id)
		}
	}

	e := New(ix, opts)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := range qs {
				i := (n + 2*w) % len(qs)
				if w%2 == 1 {
					i = len(qs) - 1 - i
				}
				if got := run(e, qs[i]); got != want[i] {
					t.Errorf("worker %d, %s: answers differ from the serial run:\n%s\nwant:\n%s", w, qs[i].id, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
