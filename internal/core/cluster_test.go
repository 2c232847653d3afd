package core

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sama/internal/cache"
	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/rdf"
	"sama/internal/sparql"
	"sama/internal/textindex"
	"sama/internal/workload"
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

// benchClusterLaps times the cluster phase alone on the cluster_param
// shapes over every department of LUBM 10 k, under the benchmark's
// thesaurus and a pool a tenth of the index; one iteration is one lap
// over the 50 queries. It reports the per-cluster time and allocations
// next to the per-lap ones, and returns the memo's counters and the
// items the lap's distinct query paths keep. A cold lap purges the memo
// first and reads each cluster's explain counters: it reports the greedy
// alignments per cluster, and fails when a lap ran one per candidate,
// as if no two candidates of a cut shared a class. The memo's budget is
// memoBytes.
func benchClusterLaps(b *testing.B, memoBytes int64, cold bool) (cache.Stats, int) {
	g := datasets.LUBM{}.Generate(10000, 1)
	ix, err := index.Build(filepath.Join(b.TempDir(), "lubm"), g,
		index.Options{Thesaurus: textindex.BenchmarkThesaurus(), PoolPages: 128})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	e := New(ix, Options{})
	e.alignMemo = cache.New(memoBytes)
	qs := clusterParamQueries(b, g)
	pres := make([]*Preprocessed, len(qs))
	for i, gq := range qs {
		pres[i] = e.Preprocess(gq.q)
	}
	kept := map[string]int{} // query-path key → items kept, filled by the warm-up
	aligned := 0
	lap := func(warmUp bool) (built, retrieved int) {
		if cold {
			e.DropCaches()
		}
		lapAligned, candidates := 0, 0
		for _, pre := range pres {
			var sp *obs.Span // records nothing when nil
			if cold {
				sp = obs.NewTrace().Phase("cluster")
			}
			var clusters []Cluster
			err := e.view(func(r backend) (err error) {
				clusters, err = e.clusterTraced(context.Background(), r, pre, sp)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			built += len(clusters)
			for _, c := range clusters {
				retrieved += c.Retrieved
				if warmUp {
					kept[c.Query.Key()] = len(c.Items)
				}
			}
			if cold {
				for _, ch := range sp.Children {
					lapAligned += int(ch.Attrs["aligned"])
					candidates += int(ch.Attrs["preranked"])
				}
			}
		}
		if cold && lapAligned >= candidates {
			b.Fatalf("a cold lap ran %d alignments for %d candidates: one per candidate", lapAligned, candidates)
		}
		if !warmUp {
			aligned += lapAligned
		}
		return built, retrieved
	}
	built, retrieved := lap(true) // warm-up: sizes the pooled scratch, fills the memo
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap(false)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	clusters := float64(b.N * built)
	b.ReportMetric(float64(len(qs)), "queries")
	b.ReportMetric(float64(retrieved)/float64(len(qs)), "retrieved/query")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/clusters, "ns/cluster")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/clusters, "allocs/cluster")
	if cold {
		b.ReportMetric(float64(aligned)/clusters, "alignments/cluster")
	}
	items := 0
	for _, n := range kept {
		items += n
	}
	return e.CacheStats()[cacheAlign], items
}

// BenchmarkClusterColdMemo is the cluster phase with the alignment memo
// purged at the start of every lap — retrieval, summaries, the counting
// cut, page reads, decode and alignment all run. `make profile` profiles
// it and its warm sibling.
func BenchmarkClusterColdMemo(b *testing.B) {
	benchClusterLaps(b, alignMemoBytes, true)
}

// BenchmarkClusterWarmMemo is the same laps with the memo kept, and sized
// to hold every cluster of a lap, so each build is one memo hit. It
// reports the bytes the memo charges per entry and per kept item (`make
// profile` writes its heap profile too).
func BenchmarkClusterWarmMemo(b *testing.B) {
	cs, items := benchClusterLaps(b, 512<<20, false)
	if cs.Evictions > 0 || cs.Hits == 0 {
		b.Fatalf("the warm laps were not all hits: %+v", cs)
	}
	b.ReportMetric(float64(cs.Bytes)/float64(cs.Entries), "memo_B/entry")
	b.ReportMetric(float64(cs.Bytes)/float64(items), "memo_B/item")
}

// BenchmarkClusterAfterInsert is read_after_write's shape on the cluster
// phase: LUBM 10 k under the benchmark thesaurus with Q1–Q10 clustered
// once, then per lap one 50-triple insert from the rest of the generated
// stream, outside the timer, and Q1–Q10 clustered again, so that every
// memo entry is stale and decided by reconfirm. It reports the
// candidates retrieved per query and, per lap, the entries re-confirmed
// and the ones re-aligned. The stream holds 400 batches; a longer run
// re-applies them from the start, which changes no path.
func BenchmarkClusterAfterInsert(b *testing.B) {
	const base, batch = 10000, 50
	ts := datasets.LUBM{}.Generate(base+400*batch, 1).Triples()
	g := rdf.NewGraph()
	for _, tr := range ts[:base] {
		g.AddTriple(tr)
	}
	ix, err := index.Build(filepath.Join(b.TempDir(), "lubm"), g,
		index.Options{Thesaurus: textindex.BenchmarkThesaurus()})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	e := New(ix, Options{})
	var pres []*Preprocessed
	keys, npaths := map[string]bool{}, 0
	for _, q := range workload.LUBMQueries()[:10] {
		pre := e.Preprocess(q.Pattern)
		pres = append(pres, pre)
		for _, p := range pre.Paths {
			keys[p.Key()] = true
		}
		npaths += len(pre.Paths)
	}
	lap := func() (retrieved int) {
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
	lap()
	stream := ts[base:]
	batches := len(stream) / batch
	before := e.CacheStats()[cacheAlign]
	retrieved := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lo := i % batches * batch
		if err := ix.InsertTriples(stream[lo : lo+batch]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		retrieved += lap()
	}
	b.StopTimer()
	after := e.CacheStats()[cacheAlign]
	laps := float64(b.N)
	// An insert leaves every entry stale, so a lap's first lookup of each
	// key is decided by reconfirm and its other lookups are fresh hits.
	reconfirmed := float64(after.Hits-before.Hits) - laps*float64(npaths-len(keys))
	b.ReportMetric(float64(retrieved)/(laps*float64(len(pres))), "retrieved/query")
	b.ReportMetric(reconfirmed/laps, "reconfirmed/lap")
	b.ReportMetric(float64(after.Invalidations-before.Invalidations)/laps, "realigned/lap")
}

// TestWarmClusterAllocatesPerKeptItem is the allocation guard of the
// cluster memo (the name is from when a warm build still copied the items
// it kept): a repeated cluster over a sink with 24 000 candidates is one
// memo lookup, so it may allocate the goroutine, the result slices, the
// memo key, the query path's variable names and its constants' term IDs
// — 512 B in 12 objects — and nothing sized by the candidates it
// retrieved or the 512 items it kept. The per-candidate memo before it
// allocated 58 KB here.
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
	c := build() // fills the memo
	if c.Retrieved < subjects || len(c.Items) != 512 {
		t.Fatalf("retrieved %d, kept %d; want ≥ %d retrieved and 512 kept", c.Retrieved, len(c.Items), subjects)
	}
	build()

	// The cheapest of 21 builds, so that a collection or a stack growth
	// landing inside one measurement does not count.
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
	if bytes > 4<<10 {
		t.Errorf("warm cluster build allocates %d B; want ≤ 4 KiB (constant, not O(kept))", bytes)
	}
	if objects > 20 {
		t.Errorf("warm cluster build allocates %d objects; want ≤ 20", objects)
	}
}

// TestClusterScratchIsNotShared runs the cluster_param shapes from
// eight goroutines through one engine, each in its own order, and
// compares every ranked answer with a serial run: a pooled scratch
// slice aliased between two concurrent builds, or a search that wrote
// into a cached cluster's items while seven others read them, shows up
// as a wrong path ID (and under -race, which make check's race-hot pass
// runs this with, as a report). The tight cluster cap makes every large
// cluster take the counting cut; every worker runs every query, so all
// but the first build of a shape is served from the memo.
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
	if cs := e.CacheStats()[cacheAlign]; cs.Hits < cs.Misses {
		t.Errorf("the workers did not share cached clusters: %+v", cs)
	}
}

// TestWarmClusterTouchesNoIndex pins what a memo hit skips: a repeated
// query performs no posting lookup and decodes no path: neither
// sama_index_lookups_total nor sama_index_path_reads_total moves.
func TestWarmClusterTouchesNoIndex(t *testing.T) {
	reg := obs.NewRegistry()
	ix, err := index.Build(filepath.Join(t.TempDir(), "fig1"), figure1Graph(), index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ix.SetMetrics(reg)
	e := New(ix, Options{})
	lookups := func() uint64 {
		const name, help = "sama_index_lookups_total", "Path index lookups by kind."
		return reg.Counter(name, help, "kind", "sink").Value() + reg.Counter(name, help, "kind", "label").Value()
	}
	pathReads := reg.Counter("sama_index_path_reads_total", "")
	want, err := e.Query(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cold, reads := lookups(), pathReads.Value()
	if cold == 0 || reads == 0 {
		t.Fatalf("the cold query made %d lookups and read %d paths; want both > 0", cold, reads)
	}
	got, err := e.Query(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if n := lookups(); n != cold {
		t.Errorf("a repeated query made %d index lookups; want 0", n-cold)
	}
	if n := pathReads.Value(); n != reads {
		t.Errorf("a repeated query read %d paths; want 0", n-reads)
	}
	if len(got) != len(want) {
		t.Fatalf("repeat returned %d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if fingerprint(got[i]) != fingerprint(want[i]) {
			t.Errorf("answer %d differs on the repeat:\n%s\nwant:\n%s", i, fingerprint(got[i]), fingerprint(want[i]))
		}
	}
}
