package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"sama/internal/align"
	"sama/internal/datasets"
	"sama/internal/index"
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
func TestHashIdxSuccessor(t *testing.T) {
	idx := []int{0, 3, 511, 70000}
	for ci := range idx {
		succ := append([]int(nil), idx...)
		succ[ci]++
		if hashIdx(idx, ci) != hashIdx(succ, -1) {
			t.Errorf("bump at %d hashes differently from the materialised successor", ci)
		}
		if hashIdx(idx, ci) == hashIdx(idx, -1) {
			t.Errorf("bump at %d collides with the base vector", ci)
		}
	}
	// Distinct vectors hash apart (spot check, not a collision proof).
	if hashIdx([]int{1, 0}, -1) == hashIdx([]int{0, 1}, -1) {
		t.Error("transposed vectors collide")
	}
}
