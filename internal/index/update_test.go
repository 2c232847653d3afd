package index

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"sama/internal/datasets"
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
	good := EncodePathDict(paths.Path{
		Nodes: []rdf.Term{iri("a"), iri("b")},
		Edges: []rdf.Term{iri("p")},
	}, d)
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodePathDict(good[:cut], d); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodePathDict(append(good, 9), d); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodePathDict([]byte{0}, d); err == nil {
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

func itoaTest(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
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

// TestReopenKeepsEarlierInserts: Build, insert T, Close, Open, insert U
// on T's subject. The reopened index has the graph T went into, so T's
// path stays and the live paths are a rebuild's of the final graph —
// after a clean Close and Open, and on a crash clone taken once U is
// acknowledged, so U lives only in the log.
func TestReopenKeepsEarlierInserts(t *testing.T) {
	tT := rdf.Triple{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("Z0001")}
	tU := rdf.Triple{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("Z0002")}
	for _, name := range []string{"clean-close", "wal-crash"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "ix")
			ix, err := Build(base, figure1Graph(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.InsertTriples([]rdf.Triple{tT}); err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := re.InsertTriples([]rdf.Triple{tU}); err != nil {
				t.Fatalf("insert after reopen: %v", err)
			}
			reopen := base
			if name == "wal-crash" {
				reopen = crashClone(t, base)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			if re, err = Open(reopen, Options{}); err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			ends := 0
			for _, id := range re.PathsBySink("Z0001") {
				if p, err := pathByID(re, id); err == nil && p.Sink() == iri("Z0001") {
					ends++
				}
			}
			if ends != 1 {
				t.Errorf("%d live paths end at Z0001, want 1", ends)
			}
			final := figure1Graph()
			final.AddTriple(tT)
			final.AddTriple(tU)
			ref, err := Build(filepath.Join(dir, "ref"), final, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if got, want := livePathKeys(t, re), livePathKeys(t, ref); !equalKeys(got, want) {
				t.Errorf("reopened index holds %d live paths, a build of the final graph %d", len(got), len(want))
			}
		})
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

// TestInsertEqualsRebuild: after a stream of LUBM insert batches of
// random sizes the live paths are, as a multiset of records, the paths
// a fresh Build over the same graph indexes: among other things, a root
// that a new triple points at starts no path any more. One batch re-applies an
// earlier one — what WAL replay does — and must change nothing: every
// path it re-enumerates is unchanged, so it keeps its ID, nothing is
// staged and nothing is tombstoned.
func TestInsertEqualsRebuild(t *testing.T) {
	ts := datasets.LUBM{}.Generate(8000, 5).Triples()
	const base = 6000
	g := rdf.NewGraph()
	for _, tr := range ts[:base] {
		g.AddTriple(tr)
	}
	ix, err := Build(filepath.Join(t.TempDir(), "ins"), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(5))
	var batches [][]rdf.Triple
	for lo := base; lo < len(ts); {
		hi := min(lo+20+rng.Intn(100), len(ts))
		batches = append(batches, ts[lo:hi])
		lo = hi
	}
	replay := 3 + rng.Intn(len(batches)-3) // re-applies batch replay-3 after batch replay-1
	tombstoned := false
	for i, batch := range batches {
		if i == replay {
			paths, live := ix.NumPaths(), ix.LivePaths()
			if err := ix.InsertTriples(batches[i-3]); err != nil {
				t.Fatal(err)
			}
			if ix.NumPaths() != paths || ix.LivePaths() != live {
				t.Fatalf("re-applying batch %d: %d paths, %d live; want %d and %d unchanged",
					i-3, ix.NumPaths(), ix.LivePaths(), paths, live)
			}
		}
		if err := ix.InsertTriples(batch); err != nil {
			t.Fatal(err)
		}
		tombstoned = tombstoned || ix.LivePaths() < ix.NumPaths()
	}
	fresh, err := Build(filepath.Join(t.TempDir(), "fresh"), ix.Graph().Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	got, want := livePathKeys(t, ix), livePathKeys(t, fresh)
	if !equalKeys(got, want) {
		t.Errorf("after %d batches: %d live paths, a fresh build has %d", len(batches), len(got), len(want))
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("first difference at %d:\n  insert: %q\n  build:  %q", i, got[i], want[i])
			}
		}
	}
	// Every tombstone here is a root an object became: batches whose new
	// triples hang below indexed roots.
	if !tombstoned {
		t.Error("no batch changed an indexed path; the test needs some to")
	}
}

// TestInsertDeltaInvariants pins what re-confirming a stale memo entry
// reads of the inserts since its watermark: an insert's new IDs are
// exactly [old NumPaths, new NumPaths), all live; the log since the
// watermark is exactly the paths live before it and dead after, each
// once; a tombstoned path still matches its postings; a kept path's
// summary is unchanged; and the compaction swap empties the log and
// bumps the layout.
func TestInsertDeltaInvariants(t *testing.T) {
	ts := datasets.LUBM{}.Generate(8000, 5).Triples()
	const base, batch = 6000, 50
	g := rdf.NewGraph()
	for _, tr := range ts[:base] {
		g.AddTriple(tr)
	}
	ix, err := Build(filepath.Join(t.TempDir(), "delta"), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	view := func(fn func(Reader)) { ix.View(func(r Reader) error { fn(r); return nil }) }
	summary := func(r Reader, id PathID) PathSummary {
		sums, err := r.SummariesInto(new(Scratch), []PathID{id})
		if err != nil {
			t.Fatal(err)
		}
		return sums[0]
	}
	// sinks holds every path's sink label, read while it was live.
	sinks := map[PathID]string{}
	readSinks := func(from int) {
		for id := PathID(from); int(id) < ix.NumPaths(); id++ {
			p, err := pathByID(ix, id)
			if err != nil {
				t.Fatal(err)
			}
			sinks[id] = p.Sink().Label()
		}
	}
	readSinks(0) // a fresh build has no tombstone
	logged := 0
	for lo := base; lo+batch <= len(ts); lo += batch {
		var w0 Watermark
		live := map[PathID]PathSummary{}
		view(func(r Reader) {
			w0 = r.Watermark()
			for id := PathID(0); int(id) < w0.Paths; id++ {
				if r.Live(id) {
					live[id] = summary(r, id)
				}
			}
		})
		if err := ix.InsertTriples(ts[lo : lo+batch]); err != nil {
			t.Fatal(err)
		}
		readSinks(w0.Paths)
		view(func(r Reader) {
			w1 := r.Watermark()
			for id := PathID(w0.Paths); int(id) < w1.Paths; id++ {
				got := r.PostingsFrom(nil, Sinks, sinks[id], PathID(w0.Paths))
				if !r.Live(id) || !slices.Contains(got, id) || got[0] < PathID(w0.Paths) {
					t.Fatalf("new path %d: live %v; its sink's postings from %d are %v", id, r.Live(id), w0.Paths, got)
				}
			}
			died := map[PathID]bool{}
			for _, id := range r.ix.tombs[w0.Tombs:w1.Tombs] {
				if _, was := live[id]; !was || died[id] || r.Live(id) {
					t.Fatalf("logged %d: live before %v, logged before %v, live now %v", id, was, died[id], r.Live(id))
				}
				died[id] = true
				if got := r.TombstonedSince(w0, Sinks, sinks[id]); !slices.Contains(got, id) {
					t.Fatalf("tombstoned %d is not among its sink's tombstones since the insert: %v", id, got)
				}
			}
			for id, sum := range live {
				if !r.Live(id) && !died[id] {
					t.Fatalf("path %d died without a log entry", id)
				}
				if r.Live(id) && summary(r, id) != sum {
					t.Fatalf("kept path %d's summary changed from %+v to %+v", id, sum, summary(r, id))
				}
			}
			logged += len(died)
		})
	}
	if logged == 0 {
		t.Fatal("no insert tombstoned a path; the test needs some to")
	}
	var layout uint64
	view(func(r Reader) { layout = r.Layout() })
	if _, err := ix.CompactIncremental(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	view(func(r Reader) {
		if w := r.Watermark(); w.Tombs != 0 || r.Layout() != layout+1 {
			t.Errorf("after the compaction: %d tombstones logged, layout %d; want none and %d", w.Tombs, r.Layout(), layout+1)
		}
	})
}

func TestInsertReadsSharedSourceListOnce(t *testing.T) {
	// Twenty roots whose IRIs differ only in the namespace share one
	// normalised label ("student"), and one insert below the node they
	// all reach affects every one of them. Source postings are keyed by
	// term, so each root's path is read once: 20 path reads, where a
	// label-keyed list read once per root would cost 400.
	const depts = 20
	student := func(d int) rdf.Term { return iri("http://x/dept" + itoaTest(d) + "/student") }
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
