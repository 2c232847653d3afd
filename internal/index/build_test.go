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
	"testing"
	"time"

	"sama/internal/datasets"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
	"sama/internal/textindex"
)

// sequentialBuild is the reference Build: Enumerate's paths, one by
// one, each interned term by term (nodes, then edges), appended as a
// record and committed.
func sequentialBuild(t *testing.T, base string, g *rdf.Graph, opts Options) *Index {
	t.Helper()
	ix, err := build(base, g, opts, func(ix *Index) (int, error) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
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
			defer want.Close()
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
// benchmark thesaurus). The graph is built once, outside the timer.
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
	for range b.N {
		ix, err := Build(base, g, opts)
		if err != nil {
			b.Fatal(err)
		}
		ix.Close()
	}
	b.ReportMetric(float64(b.N*len(ts))/b.Elapsed().Seconds(), "triples/s")
}
