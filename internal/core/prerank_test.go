package core

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/textindex"
)

// synthQuery builds a query path of n nodes whose first node is the
// given constant and whose remaining nodes and edges are variables.
func synthQuery(first rdf.Term, n int) paths.Path {
	q := paths.Path{Nodes: make([]rdf.Term, n), Edges: make([]rdf.Term, n-1)}
	q.Nodes[0] = first
	for i := 1; i < n; i++ {
		q.Nodes[i] = vr(fmt.Sprintf("v%d", i))
	}
	for i := range q.Edges {
		q.Edges[i] = vr(fmt.Sprintf("e%d", i))
	}
	return q
}

// allIDs returns every live path ID in ascending order, classified by a
// predicate over the materialised path.
func allIDs(t *testing.T, ix *index.Index) []index.PathID {
	t.Helper()
	ids := make([]index.PathID, 0, ix.NumPaths())
	for i := 0; i < ix.NumPaths(); i++ {
		if ix.Live(index.PathID(i)) {
			ids = append(ids, index.PathID(i))
		}
	}
	return ids
}

// inView returns what fn reads through the reader of one View of e's
// index.
func inView[T any](e *Engine, fn func(backend) T) T {
	var out T
	e.view(func(r backend) error { out = fn(r); return nil })
	return out
}

// preRankIn runs preRank on the reader of one View of e's index.
func preRankIn(t *testing.T, e *Engine, sc *clusterScratch, ids []index.PathID, q paths.Path) []index.PathID {
	t.Helper()
	var cands []index.PathID
	err := e.view(func(r backend) (err error) {
		cands, _, err = e.preRank(r, sc, ids, q)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func findPath(t *testing.T, ix *index.Index, pred func(paths.Path) bool) index.PathID {
	t.Helper()
	ids := allIDs(t, ix)
	ps, err := ix.ReadPathsBatched(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if pred(p) {
			return ids[i]
		}
	}
	t.Fatal("no path matches predicate")
	return 0
}

// TestPreRankDeficitCannotOutrankMissing is the regression for the old
// promise key missing*64 + deficit: once a candidate's length deficit
// reached 64 it outranked candidates that were actually missing a
// constant, inverting the documented order and evicting a
// contains-everything candidate from the frontier. The widened key
// (missing<<16 | saturated deficit) keeps any deficit below one missing
// constant.
func TestPreRankDeficitCannotOutrankMissing(t *testing.T) {
	g := rdf.NewGraph()
	// The good candidate: short (deficit 65 against the query) but
	// containing the query's only constant.
	g.AddTriple(rdf.Triple{S: iri("Alpha"), P: iri("rel"), O: iri("Omega")})
	// Two 68-node chains: full-length (deficit 0) but missing Alpha.
	for _, root := range []string{"B", "C"} {
		for i := 0; i < 67; i++ {
			g.AddTriple(rdf.Triple{
				S: iri(fmt.Sprintf("%s%02d", root, i)),
				P: iri("next"),
				O: iri(fmt.Sprintf("%s%02d", root, i+1)),
			})
		}
	}
	base := filepath.Join(t.TempDir(), "deep")
	ix, err := index.Build(base, g, index.Options{
		Paths: paths.Config{MaxLength: 80, MaxPerRoot: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })

	good := findPath(t, ix, func(p paths.Path) bool { return p.ContainsLabelText("Alpha") })
	ids := allIDs(t, ix)
	if len(ids) < 3 {
		t.Fatalf("need ≥ 3 candidates to force a cut, have %d", len(ids))
	}

	q := synthQuery(iri("Alpha"), 67) // good's deficit: 67-2 = 65 > 64

	// Cap 1 → frontier budget 2 → the three candidates force a cut.
	e := New(ix, Options{MaxCandidatesPerCluster: 1})
	defer e.Close()
	cands := preRankIn(t, e, new(clusterScratch), ids, q)
	if len(cands) != 2 {
		t.Fatalf("frontier = %d candidates, want 2", len(cands))
	}
	if cands[0] != good {
		t.Errorf("candidate with every constant ranked %v, want first (got %v)", good, cands[0])
	}
}

// TestPreRankSynonymSurvivesCut is the regression for the
// expansion-mismatch bug: retrieval admits candidates through token and
// thesaurus expansion, but the old pre-rank counted missing constants
// with exact containment only, so a candidate matching "Professor" via
// its synonym "Teacher" was charged a full missing constant and cut
// from the frontier. The signature probe masks count under the same
// expansion retrieval uses, so the synonym candidate now survives.
func TestPreRankSynonymSurvivesCut(t *testing.T) {
	th := textindex.NewThesaurus()
	th.Add("professor", "teacher")
	g := rdf.NewGraph()
	// The synonym candidate: one node shorter than the query (deficit 1)
	// and containing Teacher, a synonym of the query constant.
	g.AddTriple(rdf.Triple{S: iri("Anna"), P: iri("is"), O: iri("Teacher")})
	// Two full-length candidates containing no professor-related label.
	g.AddTriple(rdf.Triple{S: iri("C1"), P: iri("a"), O: iri("C2")})
	g.AddTriple(rdf.Triple{S: iri("C2"), P: iri("b"), O: iri("C3")})
	g.AddTriple(rdf.Triple{S: iri("D1"), P: iri("a"), O: iri("D2")})
	g.AddTriple(rdf.Triple{S: iri("D2"), P: iri("b"), O: iri("D3")})
	base := filepath.Join(t.TempDir(), "syn")
	ix, err := index.Build(base, g, index.Options{Thesaurus: th})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })

	syn := findPath(t, ix, func(p paths.Path) bool { return p.ContainsLabelText("Teacher") })
	// Keep only the synonym path and the two 3-node chains as candidates.
	all := allIDs(t, ix)
	ps, err := ix.ReadPathsBatched(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	var ids []index.PathID
	for i, p := range ps {
		if all[i] == syn || p.Length() == 3 {
			ids = append(ids, all[i])
		}
	}
	if len(ids) != 3 {
		t.Fatalf("want the synonym path and two chains, have %d candidates", len(ids))
	}

	q := synthQuery(iri("Professor"), 3)

	e := New(ix, Options{MaxCandidatesPerCluster: 1})
	defer e.Close()
	cands := preRankIn(t, e, new(clusterScratch), append([]index.PathID(nil), ids...), q)
	if len(cands) != 2 {
		t.Fatalf("frontier = %d candidates, want 2", len(cands))
	}
	if cands[0] != syn {
		t.Errorf("synonym candidate ranked %v, want first (got %v)", syn, cands[0])
	}
}

// preRankRef is preRank's definition, spelled out on the index: count
// each candidate's missing constants by fingerprint, demote to
// missing = 1 every fingerprint survivor outside the full
// PathsByAllLabels intersection, stable-sort by (missing, deficit) and
// keep the first budget. It also reports how many candidates the
// intersection confirmed and how many it demoted.
func preRankRef(t *testing.T, ix *index.Index, ids []index.PathID, q paths.Path, budget int) (cut []index.PathID, confirmed, demoted int) {
	t.Helper()
	if len(ids) < budget {
		return ids, 0, 0
	}
	sums, err := ix.Summaries(ids)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, n := range q.Nodes {
		if n.IsConstant() {
			labels = append(labels, n.Label())
		}
	}
	for _, e := range q.Edges {
		if e.IsConstant() {
			labels = append(labels, e.Label())
		}
	}
	masks := make([]uint64, len(labels))
	ix.View(func(r index.Reader) error {
		for i, l := range labels {
			masks[i] = r.LabelProbeMask(l)
		}
		return nil
	})
	inter := map[index.PathID]bool{}
	for _, id := range ix.PathsByAllLabels(labels) {
		inter[id] = true
	}
	type ranked struct {
		id               index.PathID
		missing, deficit int
	}
	rs := make([]ranked, len(ids))
	for i, id := range ids {
		r := ranked{id: id, deficit: max(0, q.Length()-int(sums[i].Len))}
		for _, mask := range masks {
			if sums[i].Sig&mask == 0 {
				r.missing++
			}
		}
		switch {
		case len(labels) == 0 || r.missing > 0:
		case inter[id]:
			confirmed++
		default:
			r.missing = 1
			demoted++
		}
		rs[i] = r
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].missing != rs[j].missing {
			return rs[i].missing < rs[j].missing
		}
		return rs[i].deficit < rs[j].deficit
	})
	for _, r := range rs[:budget] {
		cut = append(cut, r.id)
	}
	return cut, confirmed, demoted
}

// TestPreRankEqualsDefinition runs the two-step pre-rank — fingerprint
// buckets, then the leapfrog that confirms survivors up to the budget —
// against preRankRef on every query path of the five cluster_param
// shapes over every department of LUBM 10 k under the benchmark
// thesaurus, at the default cap and at a tight one. It insists that the
// mix holds cuts decided by the early exit, cuts where the survivors ran
// out first, and fingerprint collisions the intersection demoted.
func TestPreRankEqualsDefinition(t *testing.T) {
	g := datasets.LUBM{}.Generate(10000, 1)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g,
		index.Options{Thesaurus: textindex.BenchmarkThesaurus()})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var early, ranOut, demotions int
	for _, capN := range []int{0, 16} {
		e := New(ix, Options{MaxCandidatesPerCluster: capN})
		budget := 2 * e.opts.maxCandidates()
		for _, gq := range clusterParamQueries(t, g) {
			for qi, q := range e.Preprocess(gq.q).Paths {
				sc := new(clusterScratch)
				ids := inView(e, func(r backend) []index.PathID {
					ids, _ := retrieve(r, sc, q)
					return ids
				})
				want, confirmed, demoted := preRankRef(t, ix, ids, q, budget)
				if len(ids) > budget {
					if confirmed >= budget {
						early++
					} else {
						ranOut++
					}
					demotions += demoted
				}
				got := preRankIn(t, e, sc, ids, q)
				if !slices.Equal(got, want) {
					t.Fatalf("cap %d, %s path %d: preRank kept %d candidates that differ from the definition's %d (confirmed %d, demoted %d)",
						capN, gq.id, qi, len(got), len(want), confirmed, demoted)
				}
			}
		}
	}
	t.Logf("cuts: %d decided by the early exit, %d after the survivors ran out; %d demotions", early, ranOut, demotions)
	if early == 0 || ranOut == 0 || demotions == 0 {
		t.Errorf("the mix must exercise the early exit (%d), a survivor run-out (%d) and a demoted collision (%d)", early, ranOut, demotions)
	}
}
