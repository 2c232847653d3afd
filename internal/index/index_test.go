package index

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/textindex"
)

func iri(s string) rdf.Term { return rdf.NewIRI(s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }

func figure1Graph() *rdf.Graph {
	g := rdf.NewGraph()
	add := func(s, p, o rdf.Term) {
		g.AddTriple(rdf.Triple{S: s, P: p, O: o})
	}
	add(iri("CarlaBunes"), iri("sponsor"), iri("A0056"))
	add(iri("A0056"), iri("aTo"), iri("B1432"))
	add(iri("B1432"), iri("subject"), lit("Health Care"))
	add(iri("PierceDickes"), iri("sponsor"), iri("B1432"))
	add(iri("PierceDickes"), iri("gender"), lit("Male"))
	add(iri("JeffRyser"), iri("sponsor"), iri("A1589"))
	add(iri("A1589"), iri("aTo"), iri("B0532"))
	add(iri("B0532"), iri("subject"), lit("Health Care"))
	add(iri("JeffRyser"), iri("gender"), lit("Male"))
	add(iri("AliceNimber"), iri("sponsor"), iri("B1432"))
	add(iri("AliceNimber"), iri("gender"), lit("Female"))
	return g
}

func TestEncodeDecodePath(t *testing.T) {
	p := paths.Path{
		Nodes: []rdf.Term{iri("a"), rdf.NewVar("x"), rdf.NewTypedLiteral("5", "int"),
			rdf.NewLangLiteral("ciao", "it"), rdf.NewBlank("b0")},
		Edges: []rdf.Term{iri("p"), rdf.NewVar("e"), iri("q"), iri("r")},
	}
	back, err := DecodePath(EncodePath(p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Nodes, back.Nodes) || !reflect.DeepEqual(p.Edges, back.Edges) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", back, p)
	}
}

func TestDecodePathRejectsCorrupt(t *testing.T) {
	good := EncodePath(paths.Path{
		Nodes: []rdf.Term{iri("a"), iri("b")},
		Edges: []rdf.Term{iri("p")},
	})
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodePath(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodePath(append(good, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodePath([]byte{0}); err == nil {
		t.Error("zero node count accepted")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(vals []string) bool {
		if len(vals) == 0 {
			vals = []string{"x"}
		}
		var p paths.Path
		for i, v := range vals {
			p.Nodes = append(p.Nodes, iri(v))
			if i > 0 {
				p.Edges = append(p.Edges, lit(v))
			}
		}
		back, err := DecodePath(EncodePath(p))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p.Nodes, back.Nodes) && reflect.DeepEqual(p.Edges, back.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildTestIndex(t *testing.T, opts Options) *Index {
	t.Helper()
	base := filepath.Join(t.TempDir(), "fig1")
	ix, err := Build(base, figure1Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// pathByID reads one path through the index's one read.
func pathByID(ix *Index, id PathID) (paths.Path, error) {
	ps, err := ix.ReadPathsBatched(context.Background(), []PathID{id})
	if err != nil {
		return paths.Path{}, err
	}
	return ps[0], nil
}

func TestBuildStats(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	st := ix.Stats()
	if st.Triples != 11 {
		t.Errorf("Triples = %d, want 11", st.Triples)
	}
	if st.HV != 11 {
		t.Errorf("HV = %d, want 11", st.HV)
	}
	if st.Paths == 0 || st.Paths != ix.NumPaths() {
		t.Errorf("Paths = %d, NumPaths = %d", st.Paths, ix.NumPaths())
	}
	if st.HE != st.Triples+st.Paths {
		t.Errorf("HE = %d, want triples+paths = %d", st.HE, st.Triples+st.Paths)
	}
	if st.DiskBytes <= 0 {
		t.Error("DiskBytes not recorded")
	}
	if st.BuildTime <= 0 {
		t.Error("BuildTime not recorded")
	}
}

func TestPathRoundTripThroughDisk(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	for id := 0; id < ix.NumPaths(); id++ {
		p, err := pathByID(ix, PathID(id))
		if err != nil {
			t.Fatalf("path %d: %v", id, err)
		}
		if p.Length() < 2 {
			t.Errorf("path %d too short: %s", id, p)
		}
	}
	if _, err := pathByID(ix, PathID(ix.NumPaths())); err == nil {
		t.Error("out-of-range path accepted")
	}
}

func TestPathsBySink(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	ids := ix.PathsBySink("Health Care")
	if len(ids) == 0 {
		t.Fatal("no paths with Health Care sink")
	}
	ps, err := ix.ReadPathsBatched(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.Sink().Label() != "Health Care" {
			t.Errorf("path %s does not end in Health Care", p)
		}
	}
	males := ix.PathsBySink("male")
	if len(males) != 2 {
		t.Errorf("Male sink paths = %d, want 2", len(males))
	}
}

func TestPathsByLabel(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	ids := ix.PathsByLabel("B1432")
	ps, _ := ix.ReadPathsBatched(context.Background(), ids)
	for _, p := range ps {
		if !p.ContainsLabelText("B1432") {
			t.Errorf("path %s lacks B1432", p)
		}
	}
	if len(ids) == 0 {
		t.Error("no paths containing B1432")
	}
}

func TestThesaurusExpansionInIndex(t *testing.T) {
	th := textindex.NewThesaurus()
	th.Add("sponsor", "backer")
	ix := buildTestIndex(t, Options{Thesaurus: th})
	// "backer" is nowhere in the graph but expands to sponsor.
	ids := ix.PathsByLabel("backer")
	if len(ids) == 0 {
		t.Error("thesaurus expansion found nothing for backer")
	}
}

func TestOpenRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "persist")
	g := figure1Graph()
	built, err := Build(base, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantStats := built.Stats()
	wantSink := built.PathsBySink("Health Care")
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	opened, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	gotStats := opened.Stats()
	// DiskBytes is recomputed; compare the logical fields.
	if gotStats.Triples != wantStats.Triples || gotStats.HV != wantStats.HV ||
		gotStats.HE != wantStats.HE || gotStats.Paths != wantStats.Paths {
		t.Errorf("stats after reopen = %+v, want %+v", gotStats, wantStats)
	}
	if got := opened.PathsBySink("Health Care"); !reflect.DeepEqual(got, wantSink) {
		t.Errorf("sink lookup after reopen = %v, want %v", got, wantSink)
	}
	// Paths readable from disk after reopen.
	for _, id := range wantSink {
		if _, err := pathByID(opened, id); err != nil {
			t.Errorf("path %d unreadable after reopen: %v", id, err)
		}
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent"), Options{}); err == nil {
		t.Error("opening a missing index should fail")
	}
}

func TestDropCacheGoesCold(t *testing.T) {
	ix := buildTestIndex(t, Options{PoolPages: 64})
	ids := ix.PathsBySink("Male")
	if _, err := ix.ReadPathsBatched(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	if err := ix.DropCache(); err != nil {
		t.Fatal(err)
	}
	before := ix.PoolStats()
	if _, err := ix.ReadPathsBatched(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	after := ix.PoolStats()
	if after.Misses <= before.Misses {
		t.Error("cold read produced no pool misses")
	}
}

// TestSummaryLengths pins the in-memory length table against the paths
// on disk: every summary's Len is its path's node count.
func TestSummaryLengths(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	ids := make([]PathID, ix.NumPaths())
	for i := range ids {
		ids[i] = PathID(i)
	}
	sums, err := ix.Summaries(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		p, err := pathByID(ix, id)
		if err != nil {
			t.Fatal(err)
		}
		if got := int(sums[i].Len); got != p.Length() {
			t.Errorf("Summaries(%d).Len = %d, want %d", id, got, p.Length())
		}
	}
}

func TestBuildWithTightPathBudget(t *testing.T) {
	base := filepath.Join(t.TempDir(), "tight")
	ix, err := Build(base, figure1Graph(), Options{
		Paths: paths.Config{MaxPerRoot: 1, MaxLength: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.NumPaths() == 0 {
		t.Error("budgeted build produced no paths")
	}
	if ix.NumPaths() > 4 {
		t.Errorf("budget not applied: %d paths", ix.NumPaths())
	}
}
