package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/textindex"
	"sama/internal/workload"
)

// The kinds of reconfirm decision decide tells apart.
const (
	decidedServed   = "served"   // the re-pick has the entry's cut
	decidedRefused  = "refused"  // the re-pick has another cut, or the layout moved
	decidedFallback = "fallback" // refused with an equal cut: a fallback-scan entry
	decidedStale    = "stale"    // refused with an equal cut: more tombstones than candidates
)

// decide hands q's memo entry, if a write left it stale, to reconfirm as
// buildCluster does, and checks the decision against retrieval and the
// pre-rank run from scratch in the same View — what re-confirmation did
// before it read the changes instead: serve the entry when the layout is
// its own and the re-picked cut is its cut. A served entry must be that,
// with the re-pick's Retrieved; a refused one must not be, unless it is
// a fallback-scan entry or one with more tombstones to read than it has
// candidates. It returns the decision's kind, "" when there was none.
func decide(t *testing.T, e *Engine, label string, q paths.Path) (kind string) {
	t.Helper()
	e.view(func(r backend) error {
		e.alignMemo.Renew(q.Key(), r.Epoch(), func(v any) (any, int, bool) {
			stale := v.(*cachedCluster)
			got, size, ok := e.reconfirm(r, q, stale)
			sc := new(clusterScratch)
			ids, _ := retrieve(r, sc, q)
			var cut []index.PathID
			if len(ids) > 0 {
				c, _, err := e.preRank(r, sc, ids, q)
				if err != nil {
					t.Fatal(err)
				}
				cut = slices.Clone(c)
				slices.Sort(cut)
			}
			same := stale.layout == r.Layout() && slices.Equal(cut, stale.cut)
			switch {
			case ok && !same:
				t.Fatalf("%s: served a cut of %d that re-picks as another of %d", label, len(stale.cut), len(cut))
			case ok && got.(*cachedCluster).retrieved != len(ids):
				t.Fatalf("%s: served with Retrieved %d, a re-pick retrieves %d", label, got.(*cachedCluster).retrieved, len(ids))
			case ok:
				kind = decidedServed
			case !same:
				kind = decidedRefused
			case stale.step == len(cascade(q)):
				kind = decidedFallback
			case r.Watermark().Tombs-stale.mark.Tombs > stale.retrieved:
				kind = decidedStale
			default:
				t.Fatalf("%s: refused a cut of %d (Retrieved %d, now %d) that re-picks equal",
					label, len(cut), stale.retrieved, len(ids))
			}
			return got, size, ok
		})
		return nil
	})
	return kind
}

// TestReconfirmFromChangesEqualsRepick is reconfirm's oracle: every
// decision equals a re-pick's (decide), over random LUBM insert batches
// and one branch of the decision per table case.
func TestReconfirmFromChangesEqualsRepick(t *testing.T) {
	t.Run("lubm", testRepickLUBM)
	one := func(s, p, o rdf.Term) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	kinds := func(p string, n int) []rdf.Triple {
		var ts []rdf.Triple
		for i := 1; i <= n; i++ {
			ts = append(ts, one(iri(fmt.Sprintf("S%d", i)), iri(p), iri("Thing")))
		}
		return ts
	}
	insert := func(ts ...rdf.Triple) func(*index.Index) error {
		return func(ix *index.Index) error { return ix.InsertTriples(ts) }
	}
	for _, c := range []repickCase{{
		// Hub is inside every path, never a sink, so the label step found
		// the candidates; the insert gives the sink step one, which the
		// label step would rank after its cut.
		name: "an earlier step gains a live path",
		graph: []rdf.Triple{one(iri("A1"), iri("p"), iri("Hub")), one(iri("A2"), iri("p"), iri("Hub")),
			one(iri("A3"), iri("p"), iri("Hub")), one(iri("Hub"), iri("q"), iri("Y"))},
		cap:   1,
		query: one(vr("v"), iri("p"), iri("Hub")),
		write: insert(one(iri("B"), iri("p"), lit("Hub"))),
		want:  decidedRefused,
	}, {
		// Two candidates fill the budget of two (cap 1) exactly; they miss
		// the constant kind and the newcomer has it.
		name:  "a full cluster gains a better candidate",
		graph: kinds("other", 2), cap: 1,
		query: one(vr("s"), iri("kind"), iri("Thing")),
		write: insert(one(iri("S3"), iri("kind"), iri("Thing"))),
		want:  decidedRefused,
	}, {
		name:  "a full cluster gains a later candidate",
		graph: kinds("kind", 2), cap: 1,
		query: one(vr("s"), iri("kind"), iri("Thing")),
		write: insert(one(iri("S3"), iri("kind"), iri("Thing"))),
		want:  decidedServed,
	}, {
		name:  "an uncut cluster gains a candidate",
		graph: kinds("kind", 2),
		query: one(vr("s"), iri("kind"), iri("Thing")),
		write: insert(one(iri("S3"), iri("kind"), iri("Thing"))),
		want:  decidedRefused,
	}, {
		// Z makes S1 a root no more: its path, in the cut, is tombstoned.
		name:  "a cut member is tombstoned",
		graph: kinds("kind", 3), cap: 1,
		query: one(vr("s"), iri("kind"), iri("Thing")),
		write: insert(one(iri("Z"), iri("r"), iri("S1"))),
		want:  decidedRefused,
	}, {
		// Every candidate misses the constant kind; the newcomer has it.
		name:  "a newcomer ranks below the boundary",
		graph: kinds("other", 3), cap: 1,
		query: one(vr("s"), iri("kind"), iri("Thing")),
		write: insert(one(iri("S4"), iri("kind"), iri("Thing"))),
		want:  decidedRefused,
	}, {
		name:  "a newcomer ranks after the cut",
		graph: kinds("kind", 3), cap: 1,
		query: one(vr("s"), iri("kind"), iri("Thing")),
		write: insert(one(iri("S4"), iri("kind"), iri("Thing"))),
		want:  decidedServed,
	}, {
		name:  "a compaction between build and lookup",
		graph: kinds("kind", 2),
		query: one(vr("s"), iri("kind"), iri("Thing")),
		write: func(ix *index.Index) error { _, err := ix.CompactIncremental(context.Background(), 0); return err },
		want:  decidedRefused,
	}, {
		// Three roots become none; the cluster has two candidates.
		name: "a very stale entry",
		graph: append(kinds("kind", 2),
			one(iri("R1"), iri("x"), iri("Y")), one(iri("R2"), iri("x"), iri("Y")), one(iri("R3"), iri("x"), iri("Y"))),
		query: one(vr("s"), iri("kind"), iri("Thing")),
		write: insert(one(iri("Z"), iri("y"), iri("R1")), one(iri("Z"), iri("y"), iri("R2")), one(iri("Z"), iri("y"), iri("R3"))),
		want:  decidedStale,
	}, {
		// Re-inserting a triple changes no path but makes every entry stale.
		name:  "a fallback-scan entry",
		graph: kinds("kind", 2),
		query: one(vr("s"), vr("p"), vr("o")),
		write: insert(one(iri("S1"), iri("kind"), iri("Thing"))),
		want:  decidedFallback,
	}} {
		t.Run(c.name, c.run)
	}
}

// repickCase is one branch of reconfirm: a one-pattern query clustered
// over graph, then write, then the decision on its stale entry.
type repickCase struct {
	name  string
	graph []rdf.Triple
	cap   int
	query rdf.Triple
	write func(*index.Index) error
	want  string
}

// run checks the decision's kind against the re-pick (decide) and want,
// and both the entry built before the write and the one decided after it
// against an engine without the memo.
func (c repickCase) run(t *testing.T) {
	g := rdf.NewGraph()
	for _, tr := range c.graph {
		g.AddTriple(tr)
	}
	ix, err := index.Build(filepath.Join(t.TempDir(), "case"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	p := newMemoPair(ix, Options{MaxCandidatesPerCluster: c.cap})
	q := rdf.NewQueryGraph()
	q.AddTriple(c.query)
	p.check(t, "before the write", q)
	if err := c.write(ix); err != nil {
		t.Fatal(err)
	}
	if kind := decide(t, p.memo, c.name, p.memo.Preprocess(q).Paths[0]); kind != c.want {
		t.Errorf("decided %q, want %q", kind, c.want)
	}
	p.check(t, "after the write", q)
}

// testRepickLUBM decides every stale entry of every query path of
// Q1–Q12 after each of random LUBM 10 k insert batches, one of them
// followed by a compaction, at the default cluster cap and a tight one,
// under the benchmark thesaurus. The mix must hold served entries and
// refused ones.
func testRepickLUBM(t *testing.T) {
	const seed, base = 7, 10000
	ts := datasets.LUBM{}.Generate(13000, seed).Triples()
	g := rdf.NewGraph()
	for _, tr := range ts[:base] {
		g.AddTriple(tr)
	}
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g,
		index.Options{Thesaurus: textindex.BenchmarkThesaurus()})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	engines := []*Engine{New(ix, Options{}), New(ix, Options{MaxCandidatesPerCluster: 16})}
	var pres []*Preprocessed
	for _, q := range workload.LUBMQueries() {
		pres = append(pres, engines[0].Preprocess(q.Pattern))
	}
	fill := func() {
		for _, e := range engines {
			for _, pre := range pres {
				if _, err := e.Cluster(pre); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	fill()
	rng := rand.New(rand.NewSource(seed))
	kinds := map[string]int{}
	batches, compactAt := 0, 5+rng.Intn(20)
	for next := base; next < len(ts); batches++ {
		hi := min(next+20+rng.Intn(80), len(ts))
		if err := ix.InsertTriples(ts[next:hi]); err != nil {
			t.Fatal(err)
		}
		next = hi
		if batches == compactAt {
			if _, err := ix.CompactIncremental(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
		}
		for ei, e := range engines {
			for qi, pre := range pres {
				for pi, q := range pre.Paths {
					kinds[decide(t, e, fmt.Sprintf("batch %d, engine %d, Q%d path %d", batches, ei, qi+1, pi), q)]++
				}
			}
		}
		fill()
	}
	t.Logf("%d batches, compaction after batch %d: decisions %v", batches, compactAt, kinds)
	if kinds[decidedServed] == 0 || kinds[decidedRefused] == 0 {
		t.Errorf("decisions %v: the stream must serve entries and refuse some", kinds)
	}
}

// TestHubRootedInsertStartsNewLayout: an insert into a sourceless graph
// re-indexes every path under a new ID. It starts a new layout with an
// empty tombstone log rather than logging the whole index, so after
// three of them the log is still empty, and a memo entry built before
// them is refused and rebuilt equal to an engine's without the memo.
func TestHubRootedInsertStartsNewLayout(t *testing.T) {
	g := rdf.NewGraph()
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}} {
		g.AddTriple(rdf.Triple{S: iri(e[0]), P: iri("p"), O: iri(e[1])})
	}
	ix, err := index.Build(filepath.Join(t.TempDir(), "hub"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	p := newMemoPair(ix, Options{})
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("x"), P: iri("p"), O: iri("c")})
	p.check(t, "before the inserts", q)
	layout := inView(p.memo, backend.Layout)
	const inserts = 3
	for k := 0; k < inserts; k++ {
		// d_k has an in-edge: the graph stays sourceless.
		if err := ix.InsertTriples([]rdf.Triple{{S: iri("b"), P: iri("q"), O: iri(fmt.Sprintf("d%d", k))}}); err != nil {
			t.Fatal(err)
		}
		if w := inView(p.memo, backend.Watermark); w.Tombs != 0 {
			t.Fatalf("after hub-rooted insert %d the tombstone log holds %d IDs; want none", k, w.Tombs)
		}
	}
	if got := inView(p.memo, backend.Layout); got != layout+inserts {
		t.Errorf("layout %d after %d hub-rooted inserts from %d; want one bump each", got, inserts, layout)
	}
	if ix.LivePaths() == ix.NumPaths() {
		t.Fatal("test setup: the inserts tombstoned nothing")
	}
	if kind := decide(t, p.memo, "after the inserts", p.memo.Preprocess(q).Paths[0]); kind != decidedRefused {
		t.Errorf("decided %q on the entry built before the inserts, want %q", kind, decidedRefused)
	}
	p.check(t, "after the inserts", q)
}
