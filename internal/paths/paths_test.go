package paths

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"sama/internal/rdf"
)

func iri(s string) rdf.Term          { return rdf.NewIRI(s) }
func lit(s string) rdf.Term          { return rdf.NewLiteral(s) }
func vr(s string) rdf.Term           { return rdf.NewVar(s) }
func tr(s, p, o rdf.Term) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }

// figure1Graph builds the full GovTrack data graph of the paper's
// Figure 1(a) (modulo node spelling).
func figure1Graph() *rdf.Graph {
	g := rdf.NewGraph()
	add := func(s, p, o rdf.Term) { g.AddTriple(tr(s, p, o)) }
	// Sponsors of amendments.
	add(iri("CarlaBunes"), iri("sponsor"), iri("A0056"))
	add(iri("JeffRyser"), iri("sponsor"), iri("A1589"))
	add(iri("KeithFarmer"), iri("sponsor"), iri("A1232"))
	add(iri("JohnMcRie"), iri("sponsor"), iri("A0772"))
	add(iri("JohnMcRie"), iri("sponsor"), iri("A1232"))
	add(iri("PierceDickes"), iri("sponsor"), iri("A0467"))
	// Amendments to bills.
	add(iri("A0056"), iri("aTo"), iri("B1432"))
	add(iri("A1589"), iri("aTo"), iri("B0532"))
	add(iri("A1232"), iri("aTo"), iri("B0045"))
	add(iri("A0772"), iri("aTo"), iri("B0045"))
	add(iri("A0467"), iri("aTo"), iri("B0532"))
	// Bills sponsored directly.
	add(iri("JeffRyser"), iri("sponsor"), iri("B0045"))
	add(iri("PeterTraves"), iri("sponsor"), iri("B0532"))
	add(iri("AliceNimber"), iri("sponsor"), iri("B1432"))
	add(iri("PierceDickes"), iri("sponsor"), iri("B1432"))
	// Subjects.
	add(iri("B1432"), iri("subject"), lit("Health Care"))
	add(iri("B0532"), iri("subject"), lit("Health Care"))
	add(iri("B0045"), iri("subject"), lit("Health Care"))
	// Genders.
	add(iri("JeffRyser"), iri("gender"), lit("Male"))
	add(iri("KeithFarmer"), iri("gender"), lit("Male"))
	add(iri("JohnMcRie"), iri("gender"), lit("Male"))
	add(iri("PierceDickes"), iri("gender"), lit("Male"))
	add(iri("CarlaBunes"), iri("gender"), lit("Female"))
	add(iri("AliceNimber"), iri("gender"), lit("Female"))
	return g
}

func queryQ1() *rdf.QueryGraph {
	q := rdf.NewQueryGraph()
	q.AddTriple(tr(iri("CarlaBunes"), iri("sponsor"), vr("v1")))
	q.AddTriple(tr(vr("v1"), iri("aTo"), vr("v2")))
	q.AddTriple(tr(vr("v2"), iri("subject"), lit("Health Care")))
	q.AddTriple(tr(vr("v3"), iri("sponsor"), vr("v2")))
	q.AddTriple(tr(vr("v3"), iri("gender"), lit("Male")))
	return q
}

func TestPathString(t *testing.T) {
	p := Path{
		Nodes: []rdf.Term{iri("JeffRyser"), iri("A1589"), iri("B0532"), lit("Health Care")},
		Edges: []rdf.Term{iri("sponsor"), iri("aTo"), iri("subject")},
	}
	want := "JeffRyser-sponsor-A1589-aTo-B0532-subject-Health Care"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if p.Length() != 4 {
		t.Errorf("Length = %d, want 4", p.Length())
	}
	if p.Position(iri("A1589")) != 2 {
		t.Errorf("Position(A1589) = %d, want 2", p.Position(iri("A1589")))
	}
	if p.Position(iri("missing")) != 0 {
		t.Error("missing label should have position 0")
	}
	if p.Source() != iri("JeffRyser") || p.Sink() != lit("Health Care") {
		t.Error("Source/Sink wrong")
	}
}

func TestPathKeyDistinguishesKinds(t *testing.T) {
	a := Path{Nodes: []rdf.Term{iri("x"), lit("y")}, Edges: []rdf.Term{iri("p")}}
	b := Path{Nodes: []rdf.Term{iri("x"), iri("y")}, Edges: []rdf.Term{iri("p")}}
	if a.Key() == b.Key() {
		t.Error("keys should differ for literal vs IRI node")
	}
	if a.Key() != a.Clone().Key() {
		t.Error("clone key differs")
	}
}

func TestPathTriples(t *testing.T) {
	p := Path{
		Nodes: []rdf.Term{iri("a"), iri("b"), lit("c")},
		Edges: []rdf.Term{iri("p"), iri("q")},
	}
	want := []rdf.Triple{tr(iri("a"), iri("p"), iri("b")), tr(iri("b"), iri("q"), lit("c"))}
	if got := p.Triples(); !reflect.DeepEqual(got, want) {
		t.Errorf("Triples = %v", got)
	}
}

func TestEnumerateFigure1(t *testing.T) {
	g := figure1Graph()
	ps := Enumerate(g, Config{})
	// Every enumerated path must start at a source and end at a sink.
	srcs := map[rdf.Term]bool{}
	for _, s := range g.Sources() {
		srcs[g.Term(s)] = true
	}
	sinks := map[rdf.Term]bool{}
	for _, s := range g.Sinks() {
		sinks[g.Term(s)] = true
	}
	for _, p := range ps {
		if !srcs[p.Source()] {
			t.Errorf("path %s starts at non-source", p)
		}
		if !sinks[p.Sink()] {
			t.Errorf("path %s ends at non-sink", p)
		}
	}
	// The paper's example path pz must be present.
	found := false
	for _, p := range ps {
		if p.String() == "JeffRyser-sponsor-A1589-aTo-B0532-subject-Health Care" {
			found = true
		}
	}
	if !found {
		t.Error("pz path not enumerated")
	}
}

func TestEnumerateNoPrefixEmission(t *testing.T) {
	// a -> b -> c and nothing else: the only path is a-b-c, not a-b.
	g := rdf.NewGraph()
	g.AddTriple(tr(iri("a"), iri("p"), iri("b")))
	g.AddTriple(tr(iri("b"), iri("p"), iri("c")))
	ps := Enumerate(g, Config{})
	if len(ps) != 1 {
		t.Fatalf("paths = %d, want 1: %v", len(ps), ps)
	}
	if ps[0].String() != "a-p-b-p-c" {
		t.Errorf("path = %s", ps[0])
	}
}

func TestEnumerateBranching(t *testing.T) {
	// a -> b, a -> c, b -> d, c -> d: two paths a-b-d and a-c-d.
	g := rdf.NewGraph()
	g.AddTriple(tr(iri("a"), iri("p"), iri("b")))
	g.AddTriple(tr(iri("a"), iri("p"), iri("c")))
	g.AddTriple(tr(iri("b"), iri("p"), iri("d")))
	g.AddTriple(tr(iri("c"), iri("p"), iri("d")))
	ps := Enumerate(g, Config{})
	var got []string
	for _, p := range ps {
		got = append(got, p.String())
	}
	sort.Strings(got)
	want := []string{"a-p-b-p-d", "a-p-c-p-d"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("paths = %v, want %v", got, want)
	}
}

func TestEnumerateCycleBreaking(t *testing.T) {
	// s -> a -> b -> a (cycle), b -> t.
	g := rdf.NewGraph()
	g.AddTriple(tr(iri("s"), iri("p"), iri("a")))
	g.AddTriple(tr(iri("a"), iri("p"), iri("b")))
	g.AddTriple(tr(iri("b"), iri("p"), iri("a")))
	g.AddTriple(tr(iri("b"), iri("q"), iri("t")))
	ps := Enumerate(g, Config{})
	var got []string
	for _, p := range ps {
		got = append(got, p.String())
	}
	sort.Strings(got)
	// The b->a edge revisits a, so it is cut; only s-a-b-t survives.
	want := []string{"s-p-a-p-b-q-t"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("paths = %v, want %v", got, want)
	}
}

func TestEnumerateCycleOnlyGraphUsesHubs(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple(tr(iri("a"), iri("p"), iri("b")))
	g.AddTriple(tr(iri("b"), iri("p"), iri("c")))
	g.AddTriple(tr(iri("c"), iri("p"), iri("a")))
	ps := Enumerate(g, Config{})
	if len(ps) != 3 {
		t.Fatalf("paths = %d, want 3 (one per hub)", len(ps))
	}
	for _, p := range ps {
		if p.Length() != 3 {
			t.Errorf("cycle path %s length = %d, want 3", p, p.Length())
		}
	}
}

func TestEnumerateBudgets(t *testing.T) {
	g := figure1Graph()
	if got := Enumerate(g, Config{MaxPerRoot: 1}); len(got) != len(g.PathRoots()) {
		t.Errorf("MaxPerRoot 1: got %d paths from %d roots", len(got), len(g.PathRoots()))
	}
	all := Enumerate(g, Config{})
	maxLen := 0
	for _, p := range all {
		if p.Length() > maxLen {
			maxLen = p.Length()
		}
	}
	if maxLen != 4 {
		t.Errorf("unbounded max length = %d, want 4", maxLen)
	}
	short := Enumerate(g, Config{MaxLength: 2})
	if len(short) == 0 {
		t.Fatal("MaxLength=2 returned nothing")
	}
	for _, p := range short {
		if p.Length() > 2 {
			t.Errorf("path %s exceeds MaxLength", p)
		}
	}
	one := Enumerate(g, Config{MaxPerRoot: 1})
	if len(one) != len(g.Sources()) {
		t.Errorf("MaxPerRoot=1: got %d paths for %d sources", len(one), len(g.Sources()))
	}
}

func TestDecomposeQ1(t *testing.T) {
	ps := Decompose(queryQ1())
	var got []string
	for _, p := range ps {
		got = append(got, p.String())
	}
	sort.Strings(got)
	want := []string{
		"?v3-gender-Male",
		"?v3-sponsor-?v2-subject-Health Care",
		"CarlaBunes-sponsor-?v1-aTo-?v2-subject-Health Care",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PQ = %v\nwant %v", got, want)
	}
}

func TestCommonNodes(t *testing.T) {
	q1 := Path{Nodes: []rdf.Term{iri("CB"), vr("v1"), vr("v2"), lit("Health Care")},
		Edges: []rdf.Term{iri("sponsor"), iri("aTo"), iri("subject")}}
	q2 := Path{Nodes: []rdf.Term{vr("v3"), vr("v2"), lit("Health Care")},
		Edges: []rdf.Term{iri("sponsor"), iri("subject")}}
	q3 := Path{Nodes: []rdf.Term{vr("v3"), lit("Male")}, Edges: []rdf.Term{iri("gender")}}
	// χ(q1,q2) = {?v2, Health Care} (paper §5).
	if got := CommonNodes(q1, q2); len(got) != 2 {
		t.Errorf("χ(q1,q2) = %v, want 2 nodes", got)
	}
	// χ(q2,q3) = {?v3}.
	if got := CommonNodes(q2, q3); len(got) != 1 || got[0] != vr("v3") {
		t.Errorf("χ(q2,q3) = %v", got)
	}
	// χ(q1,q3) = ∅.
	if got := CommonNodes(q1, q3); len(got) != 0 {
		t.Errorf("χ(q1,q3) = %v, want empty", got)
	}
}

func TestCommonNodesProperties(t *testing.T) {
	mk := func(ids []uint8) Path {
		names := []string{"a", "b", "c", "d", "e", "f"}
		p := Path{}
		for i, id := range ids {
			p.Nodes = append(p.Nodes, iri(names[id%6]))
			if i > 0 {
				p.Edges = append(p.Edges, iri("p"))
			}
		}
		if len(p.Nodes) == 0 {
			p.Nodes = []rdf.Term{iri("a")}
		}
		return p
	}
	// Property: |χ(a,b)| == |χ(b,a)| and χ(a,a) has all distinct labels.
	f := func(x, y []uint8) bool {
		a, b := mk(x), mk(y)
		if len(CommonNodes(a, b)) != len(CommonNodes(b, a)) {
			return false
		}
		distinct := map[rdf.Term]struct{}{}
		for _, n := range a.Nodes {
			distinct[n] = struct{}{}
		}
		return len(CommonNodes(a, a)) == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFirstConstantFromEnd(t *testing.T) {
	p := Path{Nodes: []rdf.Term{iri("CB"), vr("v1"), vr("v2")}, Edges: []rdf.Term{iri("a"), iri("b")}}
	c, ok := p.FirstConstantFromEnd()
	if !ok || c != iri("CB") {
		t.Errorf("FirstConstantFromEnd = %v, %v", c, ok)
	}
	allVars := Path{Nodes: []rdf.Term{vr("x"), vr("y")}, Edges: []rdf.Term{iri("p")}}
	if _, ok := allVars.FirstConstantFromEnd(); ok {
		t.Error("all-variable path should report no constant")
	}
}

func TestContainsLabelText(t *testing.T) {
	p := Path{Nodes: []rdf.Term{iri("a"), lit("Male")}, Edges: []rdf.Term{iri("gender")}}
	if !p.ContainsLabelText("gender") || !p.ContainsLabelText("Male") || p.ContainsLabelText("nope") {
		t.Error("ContainsLabelText wrong")
	}
}
