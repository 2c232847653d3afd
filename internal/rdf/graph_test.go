package rdf

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// figure1Graph builds a fragment of the paper's Figure 1 GovTrack graph.
func figure1Graph() *Graph {
	g := NewGraph()
	iri := NewIRI
	lit := NewLiteral
	triples := []Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A0056")},
		{S: iri("A0056"), P: iri("aTo"), O: iri("B1432")},
		{S: iri("B1432"), P: iri("subject"), O: lit("Health Care")},
		{S: iri("PierceDickes"), P: iri("sponsor"), O: iri("B1432")},
		{S: iri("PierceDickes"), P: iri("gender"), O: lit("Male")},
		{S: iri("JeffRyser"), P: iri("sponsor"), O: iri("A1589")},
		{S: iri("A1589"), P: iri("aTo"), O: iri("B0532")},
		{S: iri("B0532"), P: iri("subject"), O: lit("Health Care")},
		{S: iri("JeffRyser"), P: iri("gender"), O: lit("Male")},
	}
	for _, t := range triples {
		g.AddTriple(t)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := figure1Graph()
	if g.NodeCount() != 9 {
		t.Errorf("NodeCount = %d, want 9", g.NodeCount())
	}
	if g.EdgeCount() != 9 {
		t.Errorf("EdgeCount = %d, want 9", g.EdgeCount())
	}
	cb := g.NodeByTerm(NewIRI("CarlaBunes"))
	if cb == InvalidNode {
		t.Fatal("CarlaBunes not found")
	}
	if g.Label(cb) != "CarlaBunes" {
		t.Errorf("Label = %q", g.Label(cb))
	}
	if g.OutDegree(cb) != 1 || g.InDegree(cb) != 0 {
		t.Errorf("CarlaBunes degrees = out %d in %d, want 1/0", g.OutDegree(cb), g.InDegree(cb))
	}
	if g.NodeByTerm(NewIRI("nope")) != InvalidNode {
		t.Error("missing term should return InvalidNode")
	}
}

func TestGraphDedup(t *testing.T) {
	g := NewGraph()
	tr := Triple{S: NewIRI("a"), P: NewIRI("p"), O: NewIRI("b")}
	e1 := g.AddTriple(tr)
	e2 := g.AddTriple(tr)
	if e1 != e2 {
		t.Errorf("duplicate triple created a second edge: %d vs %d", e1, e2)
	}
	if g.EdgeCount() != 1 || g.NodeCount() != 2 {
		t.Errorf("counts = %d nodes %d edges, want 2/1", g.NodeCount(), g.EdgeCount())
	}
	// Same endpoints, different label: distinct edge.
	g.AddTriple(Triple{S: NewIRI("a"), P: NewIRI("q"), O: NewIRI("b")})
	if g.EdgeCount() != 2 {
		t.Errorf("second label should add an edge, EdgeCount = %d", g.EdgeCount())
	}
}

func TestGraphSourcesAndSinks(t *testing.T) {
	g := figure1Graph()
	srcLabels := map[string]bool{}
	for _, s := range g.Sources() {
		srcLabels[g.Label(s)] = true
	}
	for _, want := range []string{"CarlaBunes", "PierceDickes", "JeffRyser"} {
		if !srcLabels[want] {
			t.Errorf("source %s missing (got %v)", want, srcLabels)
		}
	}
	sinkLabels := map[string]bool{}
	for _, s := range g.Sinks() {
		sinkLabels[g.Label(s)] = true
	}
	if !sinkLabels["Health Care"] || !sinkLabels["Male"] {
		t.Errorf("sinks = %v, want Health Care and Male", sinkLabels)
	}
	if len(sinkLabels) != 2 {
		t.Errorf("expected exactly 2 sinks, got %v", sinkLabels)
	}
}

func TestGraphHubsOnCycle(t *testing.T) {
	// A pure cycle has no sources; every node ties as hub (out-in = 0).
	g := NewGraph()
	g.AddTriple(Triple{S: NewIRI("a"), P: NewIRI("p"), O: NewIRI("b")})
	g.AddTriple(Triple{S: NewIRI("b"), P: NewIRI("p"), O: NewIRI("c")})
	g.AddTriple(Triple{S: NewIRI("c"), P: NewIRI("p"), O: NewIRI("a")})
	if len(g.Sources()) != 0 {
		t.Fatalf("cycle should have no sources, got %v", g.Sources())
	}
	if len(g.Hubs()) != 3 {
		t.Errorf("all cycle nodes tie as hubs, got %d", len(g.Hubs()))
	}
	// Add an extra out-edge to b: b becomes the unique hub.
	g.AddTriple(Triple{S: NewIRI("b"), P: NewIRI("q"), O: NewIRI("d")})
	hubs := g.Hubs()
	if len(hubs) != 1 || g.Label(hubs[0]) != "b" {
		t.Errorf("hub should be b, got %v", hubs)
	}
	roots := g.PathRoots()
	if !reflect.DeepEqual(roots, hubs) {
		t.Errorf("PathRoots on sourceless graph should equal Hubs, got %v vs %v", roots, hubs)
	}
}

func TestGraphPathRootsPreferSources(t *testing.T) {
	g := figure1Graph()
	if !reflect.DeepEqual(g.PathRoots(), g.Sources()) {
		t.Error("PathRoots should return Sources when present")
	}
}

func TestGraphHubsEmpty(t *testing.T) {
	if hubs := NewGraph().Hubs(); hubs != nil {
		t.Errorf("empty graph hubs = %v, want nil", hubs)
	}
}

func TestGraphTriplesRoundTrip(t *testing.T) {
	g := figure1Graph()
	ts := g.Triples()
	g2, err := NewGraphFromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Triples(), g2.Triples()) {
		t.Error("triples round-trip mismatch")
	}
}

func TestNewGraphFromTriplesRejectsInvalid(t *testing.T) {
	_, err := NewGraphFromTriples([]Triple{{S: NewVar("x"), P: NewIRI("p"), O: NewIRI("o")}})
	if err == nil {
		t.Error("variable subject should be rejected in data graph")
	}
}

func TestGraphClone(t *testing.T) {
	g := figure1Graph()
	c := g.Clone()
	c.AddTriple(Triple{S: NewIRI("new"), P: NewIRI("p"), O: NewIRI("x")})
	if g.NodeCount() == c.NodeCount() {
		t.Error("mutating clone affected original node count")
	}
	if !reflect.DeepEqual(g.Triples(), figure1Graph().Triples()) {
		t.Error("original changed after clone mutation")
	}
}

// TestGraphUndo: undoing to a mark leaves the graph equal to a clone
// taken at the mark, whatever was added since — new nodes, new edges
// between old nodes, duplicates of old and of new triples — and the
// graph grows again as the clone would.
func TestGraphUndo(t *testing.T) {
	g := figure1Graph()
	want := g.Clone()
	m := g.Mark()
	for _, tr := range []Triple{
		{S: NewIRI("CarlaBunes"), P: NewIRI("sponsor"), O: NewIRI("A9999")},
		{S: NewIRI("A9999"), P: NewIRI("aTo"), O: NewIRI("B0532")},
		{S: NewIRI("CarlaBunes"), P: NewIRI("gender"), O: NewLiteral("Male")},
		{S: NewIRI("CarlaBunes"), P: NewIRI("sponsor"), O: NewIRI("A0056")}, // already there
		{S: NewIRI("A9999"), P: NewIRI("aTo"), O: NewIRI("B0532")},          // added above
		{S: NewIRI("B0532"), P: NewIRI("cites"), O: NewIRI("CarlaBunes")},
	} {
		g.AddTriple(tr)
	}
	g.AddNode(NewIRI("Lonely"))
	g.Undo(m)
	sameGraph(t, g, want)
	if g.NodeByTerm(NewIRI("A9999")) != InvalidNode || g.NodeByTerm(NewIRI("Lonely")) != InvalidNode {
		t.Error("an undone node is still found by its term")
	}
	again := Triple{S: NewIRI("B0532"), P: NewIRI("cites"), O: NewIRI("CarlaBunes")}
	g.AddTriple(again)
	want.AddTriple(again)
	sameGraph(t, g, want)
	g.Undo(g.Mark()) // nothing since: a no-op
	sameGraph(t, g, want)
}

// sameGraph fails unless got and want have the same nodes and edges
// under the same IDs, in the same Out and In order.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NodeCount() != want.NodeCount() || got.EdgeCount() != want.EdgeCount() {
		t.Fatalf("graph has %d nodes and %d edges, want %d and %d",
			got.NodeCount(), got.EdgeCount(), want.NodeCount(), want.EdgeCount())
	}
	for n := NodeID(0); int(n) < want.NodeCount(); n++ {
		if got.Term(n) != want.Term(n) || got.NodeByTerm(want.Term(n)) != n {
			t.Errorf("node %d: %v, want %v", n, got.Term(n), want.Term(n))
		}
		if !slices.Equal(got.Out(n), want.Out(n)) || !slices.Equal(got.In(n), want.In(n)) {
			t.Errorf("node %d: out %v in %v, want out %v in %v", n, got.Out(n), got.In(n), want.Out(n), want.In(n))
		}
	}
	for e := EdgeID(0); int(e) < want.EdgeCount(); e++ {
		if got.Edge(e) != want.Edge(e) {
			t.Errorf("edge %d: %v, want %v", e, got.Edge(e), want.Edge(e))
		}
	}
	for _, tr := range want.Triples() {
		if dup := got.AddTriple(tr); int(dup) >= want.EdgeCount() {
			t.Errorf("triple %v is not found as an edge any more", tr)
		}
	}
}

func TestGraphSubgraph(t *testing.T) {
	g := figure1Graph()
	sub := g.Subgraph([]EdgeID{0, 1, 2})
	if sub.EdgeCount() != 3 {
		t.Fatalf("subgraph edges = %d, want 3", sub.EdgeCount())
	}
	want := []Triple{
		{S: NewIRI("CarlaBunes"), P: NewIRI("sponsor"), O: NewIRI("A0056")},
		{S: NewIRI("A0056"), P: NewIRI("aTo"), O: NewIRI("B1432")},
		{S: NewIRI("B1432"), P: NewIRI("subject"), O: NewLiteral("Health Care")},
	}
	if !reflect.DeepEqual(sub.Triples(), want) {
		t.Errorf("subgraph triples = %v", sub.Triples())
	}
}

func TestGraphIterationEarlyStop(t *testing.T) {
	g := figure1Graph()
	n := 0
	g.Nodes(func(NodeID) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("node iteration visited %d, want 3", n)
	}
	e := 0
	g.Edges(func(Edge) bool { e++; return false })
	if e != 1 {
		t.Errorf("edge iteration visited %d, want 1", e)
	}
}

func TestGraphDegreeInvariant(t *testing.T) {
	// Property: sum of out-degrees == sum of in-degrees == edge count,
	// for arbitrary triple multisets over a small alphabet.
	f := func(raw []uint8) bool {
		g := NewGraph()
		names := []string{"a", "b", "c", "d", "e"}
		for i := 0; i+2 < len(raw); i += 3 {
			g.AddTriple(Triple{
				S: NewIRI(names[raw[i]%5]),
				P: NewIRI(names[raw[i+1]%5]),
				O: NewIRI(names[raw[i+2]%5]),
			})
		}
		var outSum, inSum int
		g.Nodes(func(id NodeID) bool {
			outSum += g.OutDegree(id)
			inSum += g.InDegree(id)
			return true
		})
		return outSum == g.EdgeCount() && inSum == g.EdgeCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphString(t *testing.T) {
	g := figure1Graph()
	if got := g.String(); got != "graph{nodes: 9, edges: 9}" {
		t.Errorf("String() = %q", got)
	}
}
