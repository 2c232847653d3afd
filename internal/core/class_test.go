package core

import (
	"maps"
	"math/rand"
	"path/filepath"
	"testing"

	"sama/internal/align"
	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/rdf"
	"sama/internal/textindex"
	"sama/internal/workload"
)

// TestClassAlignmentEqualsDirect: every kept item of a cold-built
// cluster carries what aligning its own path directly gives — Cost, the
// eight counters and the bindings — although alignAll ran the aligner
// once per class of the cut. Over LUBM 10 k under the benchmark
// thesaurus, Q1–Q12 and the cluster_param shapes for every department
// are clustered under DefaultParams and random valid Params. Two crafted
// graphs cover what the LUBM clusters may not:
//
//   - tied: ?v -p-> Teacher over two 3-node paths whose windows tie on
//     price and whose middle nodes differ only in being token-related to
//     Teacher (teaches ↔ Teacher), so the tie-break anchors them apart;
//     a class not split by tie keys gives one the other's window.
//   - twice: ?v ?e ?w -s-> Sink over x1 -k-> k -s-> Sink and
//     x2 -k-> y2 -s-> Sink, where ?e binds the edge k of a path whose
//     node k comes first in its run; a member binding the term's first
//     position in the representative's run binds y2.
func TestClassAlignmentEqualsDirect(t *testing.T) {
	g := datasets.LUBM{}.Generate(10000, 1)
	qs := clusterParamQueries(t, g)
	for _, wq := range workload.LUBMQueries() {
		qs = append(qs, goldenQuery{wq.ID, wq.Pattern})
	}
	rng := rand.New(rand.NewSource(1))
	params := []align.Params{align.DefaultParams}
	for range 2 {
		w := func() float64 { return float64(1+rng.Intn(4)) / 2 }
		params = append(params, align.Params{A: w(), B: w(), C: w(), D: w(), E: 1})
	}
	ix := buildClassIndex(t, "lubm", g, index.Options{Thesaurus: textindex.BenchmarkThesaurus()})
	items := 0
	for _, par := range params {
		items += checkDirect(t, New(ix, Options{Params: par, AlignCacheMB: -1}), qs)
	}
	if items < 1000 {
		t.Errorf("only %d items checked", items)
	}

	tied := rdf.NewGraph()
	for _, tr := range [][3]string{{"a1", "q1", "teaches"}, {"teaches", "q1", "zzz"}, {"a2", "q1", "yyy"}, {"yyy", "q1", "www"}} {
		tied.AddTriple(rdf.Triple{S: iri(tr[0]), P: iri(tr[1]), O: iri(tr[2])})
	}
	tq := rdf.NewQueryGraph()
	tq.AddTriple(rdf.Triple{S: vr("v"), P: iri("p"), O: iri("Teacher")})
	twice := rdf.NewGraph()
	for _, tr := range [][3]string{{"x1", "k", "k"}, {"k", "s", "Sink"}, {"x2", "k", "y2"}, {"y2", "s", "Sink"}} {
		twice.AddTriple(rdf.Triple{S: iri(tr[0]), P: iri(tr[1]), O: iri(tr[2])})
	}
	wq := rdf.NewQueryGraph()
	wq.AddTriple(rdf.Triple{S: vr("v"), P: vr("e"), O: vr("w")})
	wq.AddTriple(rdf.Triple{S: vr("w"), P: iri("s"), O: iri("Sink")})
	for _, c := range []struct {
		name string
		g    *rdf.Graph
		q    *rdf.QueryGraph
	}{{"tied", tied, tq}, {"twice", twice, wq}} {
		e := New(buildClassIndex(t, c.name, c.g, index.Options{}), Options{AlignCacheMB: -1})
		if n := checkDirect(t, e, []goldenQuery{{c.name, c.q}}); n < 2 {
			t.Errorf("%s: %d items checked, want both paths", c.name, n)
		}
	}
}

// buildClassIndex builds g into a fresh index closed with the test.
func buildClassIndex(t *testing.T, name string, g *rdf.Graph, opts index.Options) *index.Index {
	t.Helper()
	ix, err := index.Build(filepath.Join(t.TempDir(), name), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// checkDirect clusters every query through e and compares each kept
// item with a direct greedy alignment of its path, returning the items
// compared.
func checkDirect(t *testing.T, e *Engine, qs []goldenQuery) int {
	t.Helper()
	items := 0
	for _, gq := range qs {
		clusters, err := e.Cluster(e.Preprocess(gq.q))
		if err != nil {
			t.Fatalf("%s: %v", gq.id, err)
		}
		for _, cl := range clusters {
			for ii := range cl.Items {
				got, want := cl.Alignment(ii), align.NewGreedy(e.par).Align(cl.Path(ii), cl.Query)
				if got.Cost != want.Cost || counters(got) != counters(want) || !maps.Equal(got.Subst, want.Subst) {
					t.Fatalf("%s under %+v, query path %v, item %d (%v):\n  cluster: %+v\n  direct:  %+v",
						gq.id, e.par, cl.Query, ii, cl.Path(ii), got, want)
				}
				items++
			}
		}
	}
	return items
}

// counters are an alignment's eight operation counters.
func counters(al *align.Alignment) [8]int {
	return [8]int{al.NodeMismatches, al.NodeInsertions, al.EdgeMismatches, al.EdgeInsertions,
		al.NodeDeletions, al.EdgeDeletions, al.ContextNodes, al.ContextEdges}
}
