package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"sama/internal/align"
	"sama/internal/index"
	"sama/internal/rdf"
)

// TestFoldedScoresMatchPaperFormulas is the randomized property test
// for the frontier's scoring: over seeded random graphs and star
// queries, it replays random successor walks — the moves the frontier
// expansion makes — and asserts at every step that the scorer's folded
// (λ, ψ, degree) equal the paper's formulas — align.PsiAligned and
// align.PsiDegreeAligned folded in pair order, the items' alignment
// costs in cluster order — exactly, not approximately. Any divergence
// here would show up as ulp drift in ranked scores.
func TestFoldedScoresMatchPaperFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const rounds = 8
	pairsSeen, stepsRun := 0, 0
	for round := 0; round < rounds; round++ {
		g := rdf.NewGraph()
		// Random bipartite-ish data: entities linking to two shared hubs
		// and two constants, plus noise edges, so the two-to-four query
		// paths cluster with overlapping variable bindings.
		nEnt := 8 + rng.Intn(12)
		for i := 0; i < nEnt; i++ {
			e := iri(fmt.Sprintf("E%02d", i))
			if rng.Intn(2) == 0 {
				g.AddTriple(rdf.Triple{S: e, P: iri("p1"), O: iri("Hub")})
			}
			if rng.Intn(2) == 0 {
				g.AddTriple(rdf.Triple{S: e, P: iri("p2"), O: iri("Hub")})
			}
			if rng.Intn(2) == 0 {
				g.AddTriple(rdf.Triple{S: e, P: iri("p3"), O: iri("C1")})
			}
			if rng.Intn(3) == 0 {
				g.AddTriple(rdf.Triple{S: e, P: iri("p4"), O: iri("C2")})
			}
			if rng.Intn(3) == 0 {
				g.AddTriple(rdf.Triple{S: iri(fmt.Sprintf("N%02d", rng.Intn(nEnt))), P: iri("p5"), O: e})
			}
		}
		base := filepath.Join(t.TempDir(), fmt.Sprintf("g%d", round))
		ix, err := index.Build(base, g, index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e := New(ix, Options{})

		// A random star query over ?x / ?y: every pattern pair shares a
		// variable or the Hub constant, so the intersection graph is
		// dense and every cluster is incident to several pairs.
		q := rdf.NewQueryGraph()
		q.AddTriple(rdf.Triple{S: vr("x"), P: iri("p1"), O: iri("Hub")})
		q.AddTriple(rdf.Triple{S: vr("x"), P: iri("p3"), O: iri("C1")})
		if rng.Intn(2) == 0 {
			q.AddTriple(rdf.Triple{S: vr("y"), P: iri("p2"), O: iri("Hub")})
		}
		if rng.Intn(2) == 0 {
			q.AddTriple(rdf.Triple{S: vr("y"), P: iri("p4"), O: iri("C2")})
		}

		pre := e.Preprocess(q)
		clusters, err := e.Cluster(pre)
		if err != nil {
			t.Fatal(err)
		}
		eff, _, _ := splitEffective(clusters)
		if len(eff) < 2 {
			ix.Close()
			e.Close()
			continue
		}
		ps := newPairScorer(e, pre, eff)
		if len(ps.pairs) > 0 {
			pairsSeen++
		}

		idx := make([]uint32, len(eff))
		for step := 0; step < 200; step++ {
			// Bump a random cluster that still has a successor.
			ci := rng.Intn(len(eff))
			moved := false
			for off := 0; off < len(eff); off++ {
				c := (ci + off) % len(eff)
				if int(idx[c])+1 < len(eff[c].Items) {
					idx[c]++
					moved = true
					break
				}
			}
			if !moved {
				break
			}
			stepsRun++

			chosen := make(map[int]align.PairedPath, len(eff))
			var wantLambda float64
			for ci, cl := range eff {
				al := cl.Alignment(int(idx[ci]))
				chosen[cl.QueryIndex] = align.PairedPath{Query: cl.Query, Data: cl.Path(int(idx[ci])), Alignment: al}
				wantLambda += al.Cost
			}
			psi, degree := ps.score(idx)
			wantPsi, wantDeg := paperConformity(pre, chosen, e.Params(), false)
			if psi != wantPsi || degree != wantDeg {
				t.Fatalf("round %d step %d: folded (ψ %v, deg %v) != formulas (ψ %v, deg %v) at idx %v",
					round, step, psi, degree, wantPsi, wantDeg, idx)
			}
			if l := ps.comboLambda(idx); l != wantLambda {
				t.Fatalf("round %d step %d: flat λ %v != Σ alignment costs %v at idx %v", round, step, l, wantLambda, idx)
			}
		}
		ix.Close()
		e.Close()
	}
	if pairsSeen == 0 || stepsRun == 0 {
		t.Fatalf("vacuous run: %d rounds with pairs, %d walk steps", pairsSeen, stepsRun)
	}
}
