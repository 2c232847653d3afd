package index

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sama/internal/datasets"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/rdf/ntriples"
	"sama/internal/storage"
	"sama/internal/textindex"
)

// sequentialBuild is the reference Build: the graph of g's triples in
// Build's IDs, then Enumerate's paths, one by one, each interned term by
// term (nodes, then edges), appended as a record and committed. The
// index holds no lock or log; the test's cleanup closes its files.
func sequentialBuild(t *testing.T, base string, g *rdf.Graph, opts Options) *Index {
	t.Helper()
	ig, d := newIDGraph(0, 0)
	for _, tr := range g.Triples() {
		ig.addTriple(d, tr)
	}
	opts.Paths = opts.pathConfig()
	ix, err := writeIndex(base, ig, ig.renumber(d), opts, func(ix *Index) (int, error) {
		n := 0
		for _, p := range paths.Enumerate(g, ix.opts.Paths) {
			var ids []uint32
			for _, term := range append(slices.Clone(p.Nodes), p.Edges...) {
				ids = append(ids, ix.dict.ID(term))
			}
			if _, err := ix.store.Append(appendRecord(nil, ids)); err != nil {
				return n, err
			}
			ix.commitPath(ids)
			n++
		}
		return n, nil
	}, func(*Index) {})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ix.pool.Close()
		ix.file.Close()
	})
	return ix
}

// metaBytes is the index's metadata with Stats.BuildTime and the applied
// LSN zeroed: the fields two builds of one graph, or a build and a
// compaction, may differ in.
func metaBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	buildTime, applied := ix.stats.BuildTime, ix.applied
	ix.stats.BuildTime, ix.applied = 0, 0
	defer func() { ix.stats.BuildTime, ix.applied = buildTime, applied }()
	var buf bytes.Buffer
	if err := ix.encodeMeta(bufio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomGraph draws edges between n nodes over three labels: it has
// cycles and self-loops as well as sources.
func randomGraph(seed int64, n, edges int) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := rdf.NewGraph()
	node := func() rdf.Term { return iri(fmt.Sprintf("n%d", rng.Intn(n))) }
	for range edges {
		s, p := node(), iri(fmt.Sprintf("p%d", rng.Intn(3)))
		g.AddTriple(rdf.Triple{S: s, P: p, O: node()})
	}
	return g
}

// ringGraph is sourceless — a ring of n nodes with a chord from every
// third node — so its paths are rooted at hubs.
func ringGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	at := func(i int) rdf.Term { return iri(fmt.Sprintf("r%d", i%n)) }
	for i := range n {
		g.AddTriple(rdf.Triple{S: at(i), P: iri("next"), O: at(i + 1)})
		if i%3 == 0 {
			g.AddTriple(rdf.Triple{S: at(i), P: iri("skip"), O: at(i + 5)})
		}
	}
	return g
}

// TestStreamedBuildEqualsSequential checks that Build writes the same
// pages and the same metadata as registering Enumerate's paths one by
// one, on every shape the stream has a branch for.
func TestStreamedBuildEqualsSequential(t *testing.T) {
	lubm := datasets.LUBM{}.Generate(6000, 1)
	cases := []struct {
		name string
		g    *rdf.Graph
		opts Options
	}{
		{"lubm6k", lubm, Options{Thesaurus: textindex.BenchmarkThesaurus()}},
		{"sourceless", ringGraph(30), Options{Paths: paths.Config{MaxLength: 8}}},
		{"cycles", randomGraph(3, 40, 90), Options{Paths: paths.Config{MaxLength: 6}}},
		{"max-per-root", lubm, Options{Paths: paths.Config{MaxLength: 12, MaxPerRoot: 3}}},
		{"one-per-root", lubm, Options{Paths: paths.Config{MaxLength: 12, MaxPerRoot: 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			got, err := Build(filepath.Join(dir, "streamed"), c.g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			want := sequentialBuild(t, filepath.Join(dir, "sequential"), c.g, c.opts)
			if got.NumPaths() == 0 || got.NumPaths() != want.NumPaths() {
				t.Fatalf("paths = %d, want %d (> 0)", got.NumPaths(), want.NumPaths())
			}
			gotPages, err := os.ReadFile(pagesPath(got.base))
			if err != nil {
				t.Fatal(err)
			}
			wantPages, err := os.ReadFile(pagesPath(want.base))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotPages, wantPages) {
				t.Error(".pages differ from the sequential build's")
			}
			if !bytes.Equal(metaBytes(t, got), metaBytes(t, want)) {
				t.Error(".meta differs from the sequential build's (BuildTime aside)")
			}
		})
	}
}

// TestBuildFailureStopsWalkers fails a page write in the middle of the
// stream: Build must return that error with no walker left running.
func TestBuildFailureStopsWalkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := datasets.LUBM{}.Generate(6000, 1)
	for _, k := range []uint64{0, 3, 9} { // of ≈ 15 page writes
		before := runtime.NumGoroutine()
		_, err := Build(filepath.Join(t.TempDir(), "fail"), g, Options{
			PoolPages: 4, // evictions write pages while the stream runs
			WrapIO: func(io storage.PageIO) storage.PageIO {
				fi := storage.NewFaultInjector(io)
				fi.Inject(storage.Fault{Op: storage.OpWrite, Kind: storage.Permanent, AfterN: k})
				return fi
			},
		})
		if !errors.Is(err, storage.ErrPermanent) {
			t.Fatalf("write %d fails: Build = %v, want the injected fault", k+1, err)
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("write %d fails: %d goroutines after Build, %d before", k+1, n, before)
		}
	}
}

// BenchmarkBuild times Build of the benchmark's 50 k-triple LUBM base
// (the first 50 000 of 55 000 generated triples, data seed 1, with the
// benchmark thesaurus). The graph is built once, outside the timer. It
// also reports graph_B/edge, the heap the index's resident graph of that
// base takes per edge (see residentGraphBytes).
func BenchmarkBuild(b *testing.B) {
	ts := datasets.LUBM{}.Generate(55000, 1).Triples()[:50000]
	g, err := rdf.NewGraphFromTriples(ts)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Thesaurus: textindex.BenchmarkThesaurus()}
	base := filepath.Join(b.TempDir(), "bench")
	b.ReportAllocs()
	b.ResetTimer()
	var ix *Index
	for range b.N {
		if ix, err = Build(base, g, opts); err != nil {
			b.Fatal(err)
		}
		ix.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(ts))/b.Elapsed().Seconds(), "triples/s")
	b.ReportMetric(residentGraphBytes(g, ix.dict)/float64(g.EdgeCount()), "graph_B/edge")
}

// residentGraphBytes is the heap the graph an index keeps of g takes, in
// the IDs of d, which holds every term of g: the HeapAlloc delta across
// interning g's edges alone, in edge order, as Build does, two
// collections before and two after, with g and d (and the triples g was
// built from) alive throughout.
func residentGraphBytes(g *rdf.Graph, d *Dictionary) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ig, _ := newIDGraph(g.NodeCount(), g.EdgeCount())
	for _, t := range g.Triples() {
		ig.addTriple(d, t)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ig)
	runtime.KeepAlive(d)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// TestBuildFromEqualsBuild: BuildFrom over an N-Triples stream writes
// the pages, byte for byte, and the metadata, build time aside, that
// Build writes for rdf.NewGraphFromTriples of the same triples, spelt
// out by hand — on a stream that repeats a triple, uses a predicate as
// a node, and holds blank nodes and language-tagged and typed literals.
func TestBuildFromEqualsBuild(t *testing.T) {
	const nt = `<http://ex.org/alice> <http://ex.org/knows> <http://ex.org/bob> .
<http://ex.org/alice> <http://ex.org/name> "Alice"@en .
<http://ex.org/bob> <http://ex.org/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b1 <http://ex.org/knows> <http://ex.org/alice> .
<http://ex.org/alice> <http://ex.org/knows> <http://ex.org/bob> .
<http://ex.org/knows> <http://ex.org/name> "knows"@en .
<http://ex.org/bob> <http://ex.org/likes> <http://ex.org/knows> .
_:b1 <http://ex.org/likes> _:b2 .
_:b2 <http://ex.org/name> "Alice" .
`
	ex := func(s string) rdf.Term { return iri("http://ex.org/" + s) }
	alice, bob, knows, name, likes := ex("alice"), ex("bob"), ex("knows"), ex("name"), ex("likes")
	ts := []rdf.Triple{
		{S: alice, P: knows, O: bob},
		{S: alice, P: name, O: rdf.NewLangLiteral("Alice", "en")},
		{S: bob, P: ex("age"), O: rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")},
		{S: rdf.NewBlank("b1"), P: knows, O: alice},
		{S: alice, P: knows, O: bob},
		{S: knows, P: name, O: rdf.NewLangLiteral("knows", "en")},
		{S: bob, P: likes, O: knows},
		{S: rdf.NewBlank("b1"), P: likes, O: rdf.NewBlank("b2")},
		{S: rdf.NewBlank("b2"), P: name, O: lit("Alice")},
	}
	g, err := rdf.NewGraphFromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, err := Build(filepath.Join(dir, "graph"), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	got, err := BuildFrom(filepath.Join(dir, "stream"), ntriples.NewReader(strings.NewReader(nt)).Next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if st := got.Stats(); st.Triples != len(ts)-1 || st.HV != g.NodeCount() || st.Paths == 0 {
		t.Fatalf("stats %+v, want %d triples, %d nodes and some paths", st, len(ts)-1, g.NodeCount())
	}
	gotPages, err := os.ReadFile(pagesPath(got.base))
	if err != nil {
		t.Fatal(err)
	}
	wantPages, err := os.ReadFile(pagesPath(want.base))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPages, wantPages) {
		t.Error(".pages differ from Build's")
	}
	if !bytes.Equal(metaBytes(t, got), metaBytes(t, want)) {
		t.Error(".meta differs from Build's (build time aside)")
	}
}

// TestBuildFromBadStreamKeepsIndex: a streaming build over base that
// meets a malformed line, or a triple with a literal subject, fails
// naming it and leaves the index at base as it was: a crash copy, whose
// log still holds an insert, opens to the same graph and paths.
func TestBuildFromBadStreamKeepsIndex(t *testing.T) {
	ix, err := Build(filepath.Join(t.TempDir(), "ix"), figure1Graph(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertTriples(walTestTriples); err != nil {
		t.Fatal(err)
	}
	wantGraph, wantPaths := graphOrder(ix.Graph()), livePathKeys(t, ix)
	base := crashClone(t, ix.base)
	for _, c := range []struct {
		name, want string
		next       func() (rdf.Triple, error)
	}{
		{"malformed third line", "line 3", ntriples.NewReader(strings.NewReader(
			"<a> <p> <b> .\n<b> <p> <c> .\n<c> <p> .\n<c> <p> <d> .\n")).Next},
		{"literal subject", `triple 1: rdf: subject "x"`, rdf.Stream([]rdf.Triple{
			{S: iri("a"), P: iri("p"), O: iri("b")},
			{S: lit("x"), P: iri("p"), O: iri("b")},
		})},
	} {
		if re, err := BuildFrom(base, c.next, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			if re != nil {
				re.Close()
			}
			t.Fatalf("%s: BuildFrom = %v, want an error naming %q", c.name, err, c.want)
		}
		re, err := Open(base, Options{})
		if err != nil {
			t.Fatalf("%s: Open after the failed build: %v", c.name, err)
		}
		gotGraph, gotPaths := graphOrder(re.Graph()), livePathKeys(t, re)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if gotGraph != wantGraph || !slices.Equal(gotPaths, wantPaths) {
			t.Fatalf("%s: the index at base changed", c.name)
		}
	}
}
