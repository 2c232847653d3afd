package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"sama/internal/align"
	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/workload"
)

// paperConformity is the score oracle: Ψ and the conformity degree of
// a choice of data paths, folded from zero over the intersection-graph
// pairs in pre.IG order (ascending query-path index, each undirected
// edge once) with align's reference implementations of the paper's
// formulas. chosen maps a query-path index to the pair picked for it;
// pairs with an unchosen endpoint are skipped (their ψ is part of the
// miss penalty).
func paperConformity(pre *Preprocessed, chosen map[int]align.PairedPath, par align.Params, raw bool) (psi, degree float64) {
	for qi, edges := range pre.IG {
		a, ok := chosen[qi]
		if !ok {
			continue
		}
		for _, edge := range edges {
			b, ok := chosen[edge.To]
			if !ok || edge.To < qi {
				continue
			}
			if raw {
				psi += align.Psi(a.Query, b.Query, a.Data, b.Data, par)
				degree += align.PsiDegree(a.Query, b.Query, a.Data, b.Data)
			} else {
				psi += align.PsiAligned(a.Query, b.Query, a.Alignment.Subst, b.Alignment.Subst, a.Data, b.Data, par)
				degree += align.PsiDegreeAligned(a.Query, b.Query, a.Alignment.Subst, b.Alignment.Subst, a.Data, b.Data)
			}
		}
	}
	return psi, degree
}

// paperLambda is Λ of an answer from the paper's formulas: the chosen
// paths' alignment costs in pair order, plus the miss penalty — the
// full deletion of every missing query path (A per node, C per edge)
// and the worst-case ψ = E·|χ| of every intersection-graph edge
// touching one.
func paperLambda(pre *Preprocessed, a Answer, par align.Params) float64 {
	missed := map[string]bool{}
	var pen float64
	for _, m := range a.Missing {
		missed[m.Key()] = true
		pen += par.A*float64(len(m.Nodes)) + par.C*float64(len(m.Edges))
	}
	for qi, edges := range pre.IG {
		for _, edge := range edges {
			if edge.To > qi && (missed[pre.Paths[qi].Key()] || missed[pre.Paths[edge.To].Key()]) {
				pen += par.E * float64(edge.Chi)
			}
		}
	}
	var sum float64
	for _, pr := range a.Pairs {
		sum += pr.Alignment.Cost
	}
	return sum + pen
}

// chosenPairs indexes an answer's pairs by query-path index.
func chosenPairs(t *testing.T, pre *Preprocessed, a Answer) map[int]align.PairedPath {
	t.Helper()
	byKey := make(map[string]int, len(pre.Paths))
	for qi, q := range pre.Paths {
		byKey[q.Key()] = qi
	}
	chosen := make(map[int]align.PairedPath, len(a.Pairs))
	for _, pr := range a.Pairs {
		qi, ok := byKey[pr.Query.Key()]
		if !ok {
			t.Fatalf("answer pairs a query path the decomposition does not have: %s", pr.Query)
		}
		chosen[qi] = pr
	}
	return chosen
}

// TestAnswersMatchPaperFormulas checks every answer of the Figure 7
// LUBM mix against the formulas themselves, bit for bit: Lambda is the
// sum of the pairs' alignment costs plus the miss penalty, Psi and
// Degree are align.PsiAligned / PsiDegreeAligned summed over the
// intersection-graph pairs of Pairs — and align.Psi / PsiDegree under
// RawChi. The tight cluster cap keeps the frontier and the join pass
// busy, so incrementally patched and join-built combinations are both
// among the answers checked.
func TestAnswersMatchPaperFormulas(t *testing.T) {
	g := datasets.LUBM{}.Generate(6000, 7)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, raw := range []bool{false, true} {
		t.Run(fmt.Sprintf("RawChi=%v", raw), func(t *testing.T) {
			e := New(ix, Options{MaxCandidatesPerCluster: 16, RawChi: raw})
			defer e.Close()
			checked := 0
			for _, q := range workload.LUBMQueries() {
				answers, err := e.Query(q.Pattern, 10)
				if err != nil {
					t.Fatalf("%s: %v", q.ID, err)
				}
				pre := e.Preprocess(q.Pattern)
				for i, a := range answers {
					wantPsi, wantDeg := paperConformity(pre, chosenPairs(t, pre, a), e.Params(), raw)
					if a.Psi != wantPsi || a.Degree != wantDeg {
						t.Errorf("%s answer %d: (ψ %v, degree %v), formulas give (ψ %v, degree %v)",
							q.ID, i, a.Psi, a.Degree, wantPsi, wantDeg)
					}
					if want := paperLambda(pre, a, e.Params()); a.Lambda != want {
						t.Errorf("%s answer %d: Λ %v, formulas give %v", q.ID, i, a.Lambda, want)
					}
					if a.Score != a.Lambda+a.Psi {
						t.Errorf("%s answer %d: score %v != Λ + Ψ = %v", q.ID, i, a.Score, a.Lambda+a.Psi)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no answers to check")
			}
		})
	}
}

// TestWideSharedConstantsSingleSearchPhase is the regression for query
// path pairs sharing more constants than the containment bitmask holds
// (maxSharedConsts): two 66-node query paths sharing a 65-constant
// chain. The query must answer with exactly one "search" phase in its
// trace and ψ equal to align.PsiAligned on the returned pairs.
func TestWideSharedConstantsSingleSearchPhase(t *testing.T) {
	const chain = maxSharedConsts + 1
	node := func(i int) rdf.Term { return iri(fmt.Sprintf("N%02d", i)) }
	g := rdf.NewGraph()
	q := rdf.NewQueryGraph()
	for i := 0; i+1 < chain; i++ {
		tr := rdf.Triple{S: node(i), P: iri("next"), O: node(i + 1)}
		g.AddTriple(tr)
		q.AddTriple(tr)
	}
	last := node(chain - 1)
	for _, x := range []string{"X1", "X2"} {
		g.AddTriple(rdf.Triple{S: last, P: iri("p"), O: iri(x)})
	}
	g.AddTriple(rdf.Triple{S: last, P: iri("q"), O: iri("Y1")})
	q.AddTriple(rdf.Triple{S: last, P: iri("p"), O: vr("x")})
	q.AddTriple(rdf.Triple{S: last, P: iri("q"), O: vr("y")})

	ix, err := index.Build(filepath.Join(t.TempDir(), "wide"), g, index.Options{
		Paths: paths.Config{MaxLength: chain + 8, MaxPerRoot: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	e := New(ix, Options{})
	defer e.Close()

	pre := e.Preprocess(q)
	if len(pre.Paths) != 2 {
		t.Fatalf("query decomposed into %d paths, want 2", len(pre.Paths))
	}
	consts := 0
	for _, x := range paths.CommonNodes(pre.Paths[0], pre.Paths[1]) {
		if x.Kind != rdf.Var {
			consts++
		}
	}
	if consts <= maxSharedConsts {
		t.Fatalf("query paths share %d constants, need more than %d", consts, maxSharedConsts)
	}

	answers, st, err := e.QueryWithStats(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	searches := 0
	for _, ph := range st.Trace.Phases {
		if ph.Name == "search" {
			searches++
		}
	}
	if searches != 1 {
		t.Errorf("trace has %d search phases, want 1", searches)
	}
	for i, a := range answers {
		wantPsi, wantDeg := paperConformity(pre, chosenPairs(t, pre, a), e.Params(), false)
		if a.Psi != wantPsi || a.Degree != wantDeg {
			t.Errorf("answer %d: (ψ %v, degree %v), align.PsiAligned gives (ψ %v, degree %v)",
				i, a.Psi, a.Degree, wantPsi, wantDeg)
		}
	}
}

// TestHashIdxSuccessor pins the in-place successor hashing: bumping
// index ci must hash identically to materialising the successor vector.
// The pinned values were computed by the []int hashIdx this one
// replaced (commit 992a61d), so the visited set's dedup keys — part of
// the visit-order contract — are the same 64-bit values, including for
// an index ≥ 65 536 and at the cluster-size bound.
func TestHashIdxSuccessor(t *testing.T) {
	idx := []uint32{0, 3, 511, 70000}
	for ci := range idx {
		succ := append([]uint32(nil), idx...)
		succ[ci]++
		if hashIdx(idx, ci) != hashIdx(succ, -1) {
			t.Errorf("bump at %d hashes differently from the materialised successor", ci)
		}
		if hashIdx(idx, ci) == hashIdx(idx, -1) {
			t.Errorf("bump at %d collides with the base vector", ci)
		}
	}
	// Distinct vectors hash apart (spot check, not a collision proof).
	if hashIdx([]uint32{1, 0}, -1) == hashIdx([]uint32{0, 1}, -1) {
		t.Error("transposed vectors collide")
	}

	wide := []uint32{maxCandidatesBound - 1, 65536, 255, 256, 1<<24 - 1, 7}
	for _, pin := range []struct {
		v    []uint32
		bump int
		want uint64
	}{
		{nil, -1, 0xcbf29ce484222325},
		{make([]uint32, 6), -1, 0x81d23fd7003c2305},
		{make([]uint32, 6), 0, 0x5b2a969b42d238a4},
		{make([]uint32, 6), 5, 0xe1d793ceaa066674},
		{idx, -1, 0x3f19586363768330},
		{idx, 2, 0x72774ea9ddc03ae2}, // 511 → 512 carries into the second byte
		{idx, 3, 0xe2f73a6c4ce1de1d},
		{wide, -1, 0xdc41b5f622cae59b},
		{wide, 0, 0xd5f2e86ce0f5e0ce}, // 2^20−1 → 2^20
		{wide, 1, 0xffe3dfed88080316},
		{wide, 4, 0x10e53d45482802a5}, // 2^24−1 → 2^24 carries into the top byte
	} {
		if got := hashIdx(pin.v, pin.bump); got != pin.want {
			t.Errorf("hashIdx(%v, %d) = %#x, want %#x", pin.v, pin.bump, got, pin.want)
		}
	}
}

// TestFrontierSlabsKeepLiveVectors drives the frontier's slabs through
// alloc / release / regrow rounds and checks that every live handle
// still reads back the vector and λ written to it — across slab growth
// (which moves the backing arrays) and handle reuse — and that an index
// at the cluster-size bound round-trips.
func TestFrontierSlabsKeepLiveVectors(t *testing.T) {
	const stride = 5
	q := &comboFrontier{stride: stride} // not pooled: the slabs must start empty
	rng := rand.New(rand.NewSource(17))
	type entry struct {
		vec    [stride]uint32
		lambda float64
	}
	live := map[int32]entry{}
	check := func(when string) {
		t.Helper()
		for h, want := range live {
			if got := q.vec(h); !slices.Equal(got, want.vec[:]) || q.lambda[h] != want.lambda {
				t.Fatalf("%s: handle %d reads (%v, λ %v), want (%v, λ %v)", when, h, got, q.lambda[h], want.vec, want.lambda)
			}
		}
	}
	for round := 0; round < 5; round++ {
		slab := cap(q.idx)
		for i := 0; i < 500<<round; i++ {
			h := q.alloc()
			if _, dup := live[h]; dup {
				t.Fatalf("round %d: alloc returned live handle %d", round, h)
			}
			var e entry
			for j := range e.vec {
				e.vec[j] = uint32(rng.Intn(maxCandidatesBound))
			}
			e.vec[rng.Intn(stride)] = maxCandidatesBound - 1
			e.lambda = rng.Float64()
			copy(q.vec(h), e.vec[:])
			q.lambda[h] = e.lambda
			live[h] = e
		}
		if cap(q.idx) == slab {
			t.Fatalf("round %d: the index slab did not grow", round)
		}
		check(fmt.Sprintf("round %d after growth", round))
		released := 0
		for h := range live {
			if released*3 < len(live) {
				q.release(h)
				delete(live, h)
				released++
			}
		}
		// Released handles come back before the slabs grow again.
		entries := len(q.lambda)
		for i := 0; i < released; i++ {
			h := q.alloc()
			clear(q.vec(h))
			live[h] = entry{lambda: q.lambda[h]}
		}
		if len(q.lambda) != entries {
			t.Fatalf("round %d: slabs grew by %d entries with %d handles on the free list", round, len(q.lambda)-entries, released)
		}
		check(fmt.Sprintf("round %d after reuse", round))
	}
}

// budgetBoundSearch clusters one query of the LUBM mix (Q11 and Q12 are
// the ones searched to the visit budget) on a fresh engine, for tests
// and benchmarks that run the search phase alone.
func budgetBoundSearch(tb testing.TB, ix *index.Index, opts Options, id string) (*Engine, *Preprocessed, []Cluster) {
	tb.Helper()
	e := New(ix, opts)
	tb.Cleanup(func() { e.Close() })
	for _, q := range workload.LUBMQueries() {
		if q.ID != id {
			continue
		}
		pre := e.Preprocess(q.Pattern)
		clusters, err := e.Cluster(pre)
		if err != nil {
			tb.Fatal(err)
		}
		return e, pre, clusters
	}
	tb.Fatalf("no query %s in the LUBM mix", id)
	return nil, nil, nil
}

// searchCounters runs one traced search and returns its span counters.
func searchCounters(e *Engine, pre *Preprocessed, clusters []Cluster, k int) map[string]int64 {
	tr := obs.NewTrace()
	e.searchTraced(context.Background(), pre, clusters, k, tr)
	return tr.Phases[0].Attrs
}

// TestSearchAllocationsDoNotScaleWithVisits is the allocation guard of
// the slab frontier: the same budget-bound query searched to 4 096 and
// to 65 536 visits may differ by slab regrowths (a pooled frontier can
// be dropped by the collector, and append regrows a slab a few dozen
// times on the way up), not by anything per visited or pushed
// combination.
func TestSearchAllocationsDoNotScaleWithVisits(t *testing.T) {
	g := datasets.LUBM{}.Generate(6000, 7)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	allocs := map[int]float64{}
	for _, budget := range []int{4096, 65536} {
		e, pre, clusters := budgetBoundSearch(t, ix, Options{MaxCandidatesPerCluster: 16, MaxCombinations: budget}, "Q11")
		c := searchCounters(e, pre, clusters, 10)
		if c["visited"] != int64(budget) || c["budget_stop"] != 1 {
			t.Fatalf("budget %d: search span %v, want visited=%d budget_stop=1", budget, c, budget)
		}
		allocs[budget] = testing.AllocsPerRun(3, func() { e.Search(pre, clusters, 10) })
	}
	t.Logf("allocations per search: %v", allocs)
	if extra := allocs[65536] - allocs[4096]; extra > 512 {
		t.Errorf("61 440 more visits cost %.0f more allocations (%v); want slab regrowths only", extra, allocs)
	}
}

// BenchmarkSearchBudgetBound times the search phase alone on the two
// largest queries of the LUBM mix under library defaults — clustered
// once, outside the timer — where the frontier loop runs to the visit
// budget. `make profile` profiles this benchmark.
func BenchmarkSearchBudgetBound(b *testing.B) {
	g := datasets.LUBM{}.Generate(10000, 1)
	ix, err := index.Build(filepath.Join(b.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	for _, id := range []string{"Q11", "Q12"} {
		b.Run(id, func(b *testing.B) {
			e, pre, clusters := budgetBoundSearch(b, ix, Options{}, id)
			c := searchCounters(e, pre, clusters, 10) // also the warm-up lap
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(e.Search(pre, clusters, 10)) == 0 {
					b.Fatal("no answers")
				}
			}
			b.ReportMetric(float64(c["visited"]), "visited")
			b.ReportMetric(float64(c["frontier_peak"]), "frontier_peak")
		})
	}
}
