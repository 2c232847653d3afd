package index

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
)

func TestCompressedRoundTrip(t *testing.T) {
	d := NewDictionary()
	p := paths.Path{
		Nodes: []rdf.Term{iri("a"), rdf.NewVar("x"), rdf.NewLangLiteral("ciao", "it")},
		Edges: []rdf.Term{iri("p"), rdf.NewTypedLiteral("5", "int")},
	}
	buf := EncodePathDict(p, d)
	back, err := DecodePathDict(buf, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Errorf("round trip mismatch: %v", back)
	}
	// Repeated terms share dictionary entries.
	buf2 := EncodePathDict(p, d)
	if d.Len() != 5 {
		t.Errorf("dictionary grew to %d on re-encode", d.Len())
	}
	if len(buf2) != len(buf) {
		t.Error("re-encode changed length")
	}
}

func TestDecodePathDictErrors(t *testing.T) {
	d := NewDictionary()
	whole := paths.Path{
		Nodes: []rdf.Term{iri("a"), iri("b"), iri("c")},
		Edges: []rdf.Term{iri("p"), iri("q")},
	}
	good := EncodePathDict(whole, d)
	// A record holds no count: cut after an odd number of its one-byte
	// IDs, it is the path's prefix, and elsewhere no path.
	for cut := 0; cut < len(good); cut++ {
		p, err := DecodePathDict(good[:cut], d)
		if cut%2 == 0 {
			if err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
			continue
		}
		n := (cut + 1) / 2
		want := paths.Path{Nodes: whole.Nodes[:n]}
		if n > 1 {
			want.Edges = whole.Edges[:n-1]
		}
		if err != nil || !reflect.DeepEqual(p, want) {
			t.Errorf("truncation at %d: %v, %v; want the %d-node prefix", cut, p, err, n)
		}
	}
	if _, err := DecodePathDict(append(good, 9), d); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodePathDict(append(good, 0x81), d); err == nil {
		t.Error("trailing partial varint accepted")
	}
	if _, err := DecodePathDict([]byte{}, d); err == nil {
		t.Error("zero-node path accepted")
	}
	// Unknown ID.
	empty := NewDictionary()
	if _, err := DecodePathDict(good, empty); err == nil {
		t.Error("decoding against empty dictionary accepted")
	}
}

func TestCompressedIndexEndToEnd(t *testing.T) {
	base := filepath.Join(t.TempDir(), "comp")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sinkIDs := ix.PathsBySink("Health Care")
	if len(sinkIDs) == 0 {
		t.Fatal("no sink matches")
	}
	ps, err := ix.ReadPathsBatched(context.Background(), sinkIDs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.Sink().Label() != "Health Care" {
			t.Errorf("path sink wrong: %s", p)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	// Dictionary persists across reopen.
	back, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := back.PathsBySink("Health Care"); !reflect.DeepEqual(got, sinkIDs) {
		t.Errorf("sink IDs after reopen = %v, want %v", got, sinkIDs)
	}
	for _, id := range sinkIDs {
		if _, err := pathByID(back, id); err != nil {
			t.Errorf("path %d unreadable after reopen: %v", id, err)
		}
	}
}

func TestInsertTriplesIncremental(t *testing.T) {
	base := filepath.Join(t.TempDir(), "upd")
	g := figure1Graph()
	ix, err := Build(base, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	before := ix.LivePaths()

	// A new amendment by Alice Nimber to B0532: extends Alice's paths.
	err = ix.InsertTriples([]rdf.Triple{
		{S: iri("AliceNimber"), P: iri("sponsor"), O: iri("A9000")},
		{S: iri("A9000"), P: iri("aTo"), O: iri("B0532")},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := ix.LivePaths()
	if after <= before {
		t.Errorf("live paths did not grow: %d → %d", before, after)
	}
	// The new chain must be retrievable end-to-end.
	found := false
	for _, id := range ix.PathsBySink("Health Care") {
		p, err := pathByID(ix, id)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() == "AliceNimber-sponsor-A9000-aTo-B0532-subject-Health Care" {
			found = true
		}
	}
	if !found {
		t.Error("incrementally added path not found via sink lookup")
	}
	// No stale duplicates: every live path key is unique.
	seen := map[string]int{}
	for id := 0; id < ix.NumPaths(); id++ {
		if !ix.Live(PathID(id)) {
			continue
		}
		p, err := pathByID(ix, PathID(id))
		if err != nil {
			t.Fatal(err)
		}
		seen[p.Key()]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("duplicate live path ×%d: %q", n, k)
		}
	}
	// Stats reflect the update.
	if ix.Stats().Paths != after {
		t.Errorf("stats.Paths = %d, want %d", ix.Stats().Paths, after)
	}
	if ix.Stats().Triples != g.EdgeCount() {
		t.Errorf("stats.Triples = %d, want %d", ix.Stats().Triples, g.EdgeCount())
	}
}

func TestInsertTriplesNewSource(t *testing.T) {
	base := filepath.Join(t.TempDir(), "upd2")
	g := figure1Graph()
	ix, err := Build(base, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// A brand-new person sponsoring an existing bill.
	err = ix.InsertTriples([]rdf.Triple{
		{S: iri("NewPerson"), P: iri("sponsor"), O: iri("B1432")},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := ix.PathsByLabel("NewPerson")
	if len(ids) == 0 {
		t.Fatal("paths from new source not indexed")
	}
	p, err := pathByID(ix, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() != iri("NewPerson") {
		t.Errorf("path source = %v", p.Source())
	}
}

func TestInsertTriplesPersistsAcrossReopen(t *testing.T) {
	base := filepath.Join(t.TempDir(), "upd3")
	g := figure1Graph()
	ix, err := Build(base, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("NewPerson"), P: iri("sponsor"), O: iri("B1432")},
	}); err != nil {
		t.Fatal(err)
	}
	live := ix.LivePaths()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.LivePaths() != live {
		t.Errorf("live paths after reopen = %d, want %d", back.LivePaths(), live)
	}
	if len(back.PathsByLabel("NewPerson")) == 0 {
		t.Error("updated postings lost across reopen")
	}
	// Tombstoned paths stay invisible.
	for _, id := range back.PathsBySink("Health Care") {
		if !back.Live(id) {
			t.Errorf("lookup returned tombstoned path %d", id)
		}
	}
}

func TestInsertTriplesRejectsInvalid(t *testing.T) {
	base := filepath.Join(t.TempDir(), "upd5")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	err = ix.InsertTriples([]rdf.Triple{{S: rdf.NewVar("x"), P: iri("p"), O: iri("y")}})
	if err == nil {
		t.Error("invalid triple accepted")
	}
	if err := ix.InsertTriples(nil); err != nil {
		t.Errorf("empty insert should be a no-op, got %v", err)
	}
}

func TestInsertTriplesHubGraphRebuilds(t *testing.T) {
	// A cycle graph has no sources: updates rebuild from hubs.
	g := rdf.NewGraph()
	g.AddTriple(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	g.AddTriple(rdf.Triple{S: iri("b"), P: iri("p"), O: iri("c")})
	g.AddTriple(rdf.Triple{S: iri("c"), P: iri("p"), O: iri("a")})
	base := filepath.Join(t.TempDir(), "upd6")
	ix, err := Build(base, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("b"), P: iri("q"), O: iri("d")},
	}); err != nil {
		t.Fatal(err)
	}
	// b is now the unique hub; all paths start there.
	for id := 0; id < ix.NumPaths(); id++ {
		if !ix.Live(PathID(id)) {
			continue
		}
		p, err := pathByID(ix, PathID(id))
		if err != nil {
			t.Fatal(err)
		}
		if p.Source() != iri("b") {
			t.Errorf("hub-rebuilt path starts at %v, want b (%s)", p.Source(), p)
		}
	}
}

// TestCheckpointRefreshesDiskBytes: after inserts and a Checkpoint,
// Stats().DiskBytes is the size of the two index files the checkpoint
// wrote (the log is left out), and the index answers the inserts.
func TestCheckpointRefreshesDiskBytes(t *testing.T) {
	base := filepath.Join(t.TempDir(), "upd7")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	built := ix.Stats().DiskBytes
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("NewPerson"), P: iri("gender"), O: lit("Male")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var files int64
	for _, name := range []string{pagesPath(base), metaPath(base)} {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		files += fi.Size()
	}
	if got := ix.Stats().DiskBytes; got != files || got == built {
		t.Errorf("DiskBytes after a checkpoint = %d, want the files' %d (build time: %d)", got, files, built)
	}
	males := ix.PathsBySink("male")
	found := false
	for _, id := range males {
		p, _ := pathByID(ix, id)
		if p.Source() == iri("NewPerson") {
			found = true
		}
	}
	if !found {
		t.Error("updated index misses new gender path")
	}
}

func TestTightBudgetUpdate(t *testing.T) {
	// Updates respect the index's path budget.
	base := filepath.Join(t.TempDir(), "upd8")
	ix, err := Build(base, figure1Graph(), Options{
		Paths: paths.Config{MaxLength: 3, MaxPerRoot: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A7777")},
	}); err != nil {
		t.Fatal(err)
	}
	// Carla's paths were re-enumerated under MaxPerRoot=2.
	n := 0
	for id := 0; id < ix.NumPaths(); id++ {
		if !ix.Live(PathID(id)) {
			continue
		}
		p, _ := pathByID(ix, PathID(id))
		if p.Source() == iri("CarlaBunes") {
			n++
		}
	}
	if n == 0 || n > 2 {
		t.Errorf("CarlaBunes paths after budgeted update = %d, want 1..2", n)
	}
}

func TestInsertReadsSharedSourceListOnce(t *testing.T) {
	// Twenty roots whose IRIs differ only in the namespace share one
	// normalised label ("student"), and one insert below the node they
	// all reach affects every one of them. Source postings are keyed by
	// term, so each root's path is read once: 20 path reads, where a
	// label-keyed list read once per root would cost 400.
	const depts = 20
	student := func(d int) rdf.Term { return iri("http://x/dept" + strconv.Itoa(d) + "/student") }
	g := rdf.NewGraph()
	for d := 0; d < depts; d++ {
		g.AddTriple(rdf.Triple{S: student(d), P: iri("takes"), O: iri("http://x/course")})
	}
	ix, err := Build(filepath.Join(t.TempDir(), "shared"), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ix.SetMetrics(obs.NewRegistry())
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("http://x/course"), P: iri("taughtBy"), O: iri("http://x/prof")},
	}); err != nil {
		t.Fatal(err)
	}
	if got := ix.mPathReads.Value(); got != depts {
		t.Errorf("insert read %d paths to verify tombstones, want %d", got, depts)
	}
	// Every root's old path is tombstoned and its extension is live.
	live := map[rdf.Term]string{}
	for id := 0; id < ix.NumPaths(); id++ {
		if !ix.Live(PathID(id)) {
			continue
		}
		p, err := pathByID(ix, PathID(id))
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := live[p.Source()]; dup {
			t.Errorf("two live paths from %v: %q and %q", p.Source(), prev, p.String())
		}
		live[p.Source()] = p.String()
	}
	for d := 0; d < depts; d++ {
		want := student(d).Label() + "-takes-http://x/course-taughtBy-http://x/prof"
		if live[student(d)] != want {
			t.Errorf("live path from dept %d = %q, want %q", d, live[student(d)], want)
		}
	}
}
