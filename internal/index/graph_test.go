package index

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"sama/internal/datasets"
	"sama/internal/paths"
	"sama/internal/rdf"
)

// TestGraphParity: the graph an index keeps is, spelt out by Graph, the
// graph rdf.NewGraphFromTriples builds of the same triples — every node's
// term and ID, every edge and its ID, each node's out- and in-edges in
// order, and the node a term finds — and its own out- and in-edge lists
// are those too: after Build; after inserts that repeat triples and add
// terms no path holds (a cycle no source reaches, a subject beyond the
// budget, a node term used as a predicate); after Open of a crash copy,
// which replays them, and of a checkpointed copy; and after Compact.
func TestGraphParity(t *testing.T) {
	base := datasets.LUBM{}.Generate(1500, 1).Triples()
	extra := datasets.LUBM{}.Generate(1500, 2).Triples()[:200]
	pending := []rdf.Triple{
		{S: iri("P1"), P: iri("loops"), O: iri("P2")},
		{S: iri("P2"), P: iri("loops"), O: iri("P1")},
		{S: iri("P2"), P: base[0].S, O: iri("P3")},
		{S: base[0].O, P: iri("P1"), O: lit("far")},
		base[1],
	}
	g, err := rdf.NewGraphFromTriples(base)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(filepath.Join(t.TempDir(), "ix"), g, Options{Paths: paths.Config{MaxLength: 4}, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	sameGraph(t, "built", ix, base)
	all := slices.Concat(base, extra, pending)
	for i := 0; i < len(extra); i += 50 {
		if err := ix.InsertTriples(extra[i : i+50]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.InsertTriples(pending); err != nil {
		t.Fatal(err)
	}
	if ix.graph.pending.Len() == 0 {
		t.Fatal("the inserts left no term pending")
	}
	sameGraph(t, "inserted", ix, all)

	replayed, err := Open(crashClone(t, ix.base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if replayed.Recovery().Records == 0 {
		t.Fatal("the crash copy replayed no log record")
	}
	sameGraph(t, "replayed", replayed, all)
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(crashClone(t, ix.base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	sameGraph(t, "reopened", reopened, all)
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "compacted", ix, all)
}

// sameGraph fails unless ix's graph, spelt out by Graph and in its own
// edge lists, is the graph rdf.NewGraphFromTriples builds of ts.
func sameGraph(t *testing.T, what string, ix *Index, ts []rdf.Triple) {
	t.Helper()
	want, err := rdf.NewGraphFromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Graph()
	if got.NodeCount() != want.NodeCount() || got.EdgeCount() != want.EdgeCount() {
		t.Fatalf("%s: %d nodes and %d edges, want %d and %d", what, got.NodeCount(), got.EdgeCount(), want.NodeCount(), want.EdgeCount())
	}
	for n := rdf.NodeID(0); int(n) < want.NodeCount(); n++ {
		if got.Term(n) != want.Term(n) || got.NodeByTerm(want.Term(n)) != n {
			t.Fatalf("%s: node %d is %v, want %v", what, n, got.Term(n), want.Term(n))
		}
		for _, lists := range [][2][]rdf.EdgeID{{got.Out(n), want.Out(n)}, {got.In(n), want.In(n)}, {ix.graph.out[n], want.Out(n)}, {ix.graph.in[n], want.In(n)}} {
			if !slices.Equal(lists[0], lists[1]) {
				t.Fatalf("%s: node %d has edges %v, want %v", what, n, lists[0], lists[1])
			}
		}
	}
	for e := rdf.EdgeID(0); int(e) < want.EdgeCount(); e++ {
		if got.Edge(e) != want.Edge(e) {
			t.Fatalf("%s: edge %d is %v, want %v", what, e, got.Edge(e), want.Edge(e))
		}
	}
}
