package index

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sama/internal/datasets"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
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
	built := ix.dict.Len()
	all := slices.Concat(base, extra, pending)
	for i := 0; i < len(extra); i += 50 {
		if err := ix.InsertTriples(extra[i : i+50]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.InsertTriples(pending); err != nil {
		t.Fatal(err)
	}
	// commitPath caches the label postings of every term a path holds.
	alone := 0
	for id := built; id < ix.dict.Len(); id++ {
		if id >= len(ix.labelLists) || ix.labelLists[id] == nil {
			alone++
		}
	}
	if alone == 0 {
		t.Fatal("the inserts added no term the graph alone holds")
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

// TestTermIDOrder pins which ID the dictionary gives a term: Build
// interns the edge labels first, then the subjects and objects, each in
// edge order; an insert appends a triple's new terms, subject, object,
// predicate; a failed insert's terms are truncated, so its retry interns
// them at the same IDs; a crash copy, which replays the inserts (the
// failed one too), and a checkpointed copy hold the same dictionary; and
// Compact keeps every ID unless an insert brought a new predicate, which
// it moves ahead of the nodes.
func TestTermIDOrder(t *testing.T) {
	same := func(what string, ix *Index, want string) {
		t.Helper()
		var terms []string
		for _, term := range ix.dict.terms {
			terms = append(terms, term.Value)
		}
		if got := strings.Join(terms, " "); got != want {
			t.Fatalf("%s: terms %q, want %q", what, got, want)
		}
	}
	triples := func(spo ...[3]string) []rdf.Triple {
		ts := make([]rdf.Triple, len(spo))
		for i, x := range spo {
			ts[i] = rdf.Triple{S: iri(x[0]), P: iri(x[1]), O: iri(x[2])}
		}
		return ts
	}
	g, err := rdf.NewGraphFromTriples(triples([3]string{"s1", "knows", "o1"}, [3]string{"o1", "age", "o2"}, [3]string{"s1", "age", "o3"}))
	if err != nil {
		t.Fatal(err)
	}
	var fi *storage.FaultInjector
	base := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(base, g, Options{CheckpointBytes: -1, WrapIO: func(io storage.PageIO) storage.PageIO {
		fi = storage.NewFaultInjector(io)
		return fi
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	same("built", ix, "knows age s1 o1 o2 o3")

	if err := ix.InsertTriples(triples([3]string{"s2", "knows", "o4"}, [3]string{"o4", "age", "s1"})); err != nil {
		t.Fatal(err)
	}
	same("inserted", ix, "knows age s1 o1 o2 o3 s2 o4")
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	same("compacted with no new predicate", ix, "knows age s1 o1 o2 o3 s2 o4")

	// o2's new edge affects s1's paths, which the insert cannot read.
	batch := triples([3]string{"o2", "likes", "o5"}, [3]string{"s3", "age", "o5"})
	if err := ix.DropCache(); err != nil {
		t.Fatal(err)
	}
	fi.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.Permanent})
	err = ix.InsertTriples(batch)
	fi.Clear()
	if err == nil || !strings.Contains(err.Error(), "affected roots") {
		t.Fatalf("insert under permanent read faults: err = %v, want a failed read of the affected roots' paths", err)
	}
	same("failed", ix, "knows age s1 o1 o2 o3 s2 o4")
	if err := ix.InsertTriples(batch); err != nil {
		t.Fatal(err)
	}
	want := "knows age s1 o1 o2 o3 s2 o4 o5 likes s3"
	same("retried", ix, want)

	replayed, err := Open(crashClone(t, base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	same("replayed", replayed, want)
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(crashClone(t, base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	same("reopened", reopened, want)
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	same("compacted with a new predicate", ix, "knows age likes s1 o1 o2 o3 s2 o4 o5 s3")
}
