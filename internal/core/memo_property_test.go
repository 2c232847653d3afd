package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/rdf"
	"sama/internal/workload"
)

// TestAlignMemoExactUnderWrites is the memo's exactness property: an
// engine with the alignment memo and one without, over the same index,
// agree on every cluster (items and Retrieved) and every ranked answer
// across inserts and compactions. Entries go stale at every write, so
// this is what re-confirming a stale entry by its pre-rank cut, instead
// of rebuilding it, must never change.
func TestAlignMemoExactUnderWrites(t *testing.T) {
	t.Run("lubm", testMemoExactLUBM)
	t.Run("renumbered", testMemoExactRenumbered)
}

// memoPair is the two engines the property compares, over one index.
type memoPair struct{ memo, plain *Engine }

func newMemoPair(ix *index.Index, opts Options) memoPair {
	p := memoPair{memo: New(ix, opts)}
	opts.AlignCacheMB = -1
	p.plain = New(ix, opts)
	return p
}

// check runs q on both engines — its clusters, then its top 10 — and
// fails on the first difference. It returns the memo engine's plan.
func (p memoPair) check(t *testing.T, label string, q *rdf.QueryGraph) *obs.Plan {
	t.Helper()
	pre := p.memo.Preprocess(q)
	got, err := p.memo.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.plain.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := clusterLines(got), clusterLines(want); g != w {
		t.Fatalf("%s: the memo engine's clusters differ:\n%s\nwithout the memo:\n%s", label, g, w)
	}
	gotAns, st, err := p.memo.QueryWithStats(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantAns, err := p.plain.Query(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAns) != len(wantAns) {
		t.Fatalf("%s: %d answers with the memo, %d without", label, len(gotAns), len(wantAns))
	}
	for i := range wantAns {
		if g, w := fingerprint(gotAns[i]), fingerprint(wantAns[i]); g != w {
			t.Fatalf("%s: answer %d with the memo:\n  %s\nwithout:\n  %s", label, i, g, w)
		}
	}
	return st.Plan()
}

// testMemoExactLUBM interleaves LUBM stream inserts, one incremental
// compaction and random subsets of Q1–Q10 at random. The tight cluster
// cap makes the cut a strict subset of what retrieval returns.
func testMemoExactLUBM(t *testing.T) {
	const seed = 11
	ts := datasets.LUBM{}.Generate(9000, seed).Triples()
	const base, batch = 6000, 50
	g := rdf.NewGraph()
	for _, tr := range ts[:base] {
		g.AddTriple(tr)
	}
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	p := newMemoPair(ix, Options{MaxCandidatesPerCluster: 16})

	qs := workload.LUBMQueries()[:10]
	rng := rand.New(rand.NewSource(seed))
	const rounds = 24
	compactAt := 1 + rng.Intn(rounds-2)
	next := base
	renewed := 0 // clusters served by re-confirming an entry a write made stale
	for round := 0; round < rounds; round++ {
		wrote := false
		for n := rng.Intn(3); n > 0 && next+batch <= len(ts); n-- {
			if err := ix.InsertTriples(ts[next : next+batch]); err != nil {
				t.Fatal(err)
			}
			next += batch
			wrote = true
		}
		if round == compactAt {
			if _, err := ix.CompactIncremental(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
		}
		for j, qi := range rng.Perm(len(qs))[:1+rng.Intn(len(qs))] {
			plan := p.check(t, fmt.Sprintf("round %d, %s", round, qs[qi].ID), qs[qi].Pattern)
			if !wrote || j > 0 {
				continue
			}
			// The first query after a write finds only stale entries, so
			// each of its clusters the check's Cluster call served
			// without aligning was re-confirmed.
			for _, ph := range plan.Phases {
				for _, c := range ph.Children {
					if c.Attrs["aligned"] == 0 && c.Attrs["preranked"] > 0 {
						renewed++
					}
				}
			}
		}
	}
	cs := p.memo.CacheStats()[cacheAlign]
	t.Logf("%d batches inserted, compaction at round %d; memo %+v; %d clusters re-confirmed after a write",
		(next-base)/batch, compactAt, cs, renewed)
	if renewed == 0 || cs.Invalidations == 0 {
		t.Errorf("re-confirmed %d clusters and re-aligned %d stale ones; the test needs both", renewed, cs.Invalidations)
	}
}

// testMemoExactRenumbered is the case the random schedule does not
// reach: a compaction renumbers the IDs so that a changed path takes
// the ID a stale entry's cut names, and the cut re-derives equal as
// numbers. Only the layout tells the entry's items apart from the
// current records.
func testMemoExactRenumbered(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple(rdf.Triple{S: iri("A"), P: iri("s"), O: iri("X")}) // path 0
	g.AddTriple(rdf.Triple{S: iri("B"), P: iri("s"), O: iri("Y")}) // path 1
	ix, err := index.Build(filepath.Join(t.TempDir(), "renum"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	p := newMemoPair(ix, Options{})
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("v"), P: iri("s"), O: iri("X")})
	p.check(t, "before the insert", q)

	// A and B stop being roots: their paths are tombstoned and the new
	// ones, C-s-A-s-X and D-s-B-s-Y, take IDs 2 and 3 — until the
	// compaction makes them 0 and 1, so X's cut is {0} again.
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("C"), P: iri("s"), O: iri("A")},
		{S: iri("D"), P: iri("s"), O: iri("B")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.CompactIncremental(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	cs, err := p.plain.Cluster(p.plain.Preprocess(q))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs[0].Items) != 1 || cs[0].Items[0].ID != 0 || cs[0].Path(0).Length() != 3 {
		t.Fatalf("test setup: X's cluster after the compaction is\n%s\nwant C-s-A-s-X at ID 0", clusterLines(cs))
	}
	p.check(t, "after the compaction", q)
}
