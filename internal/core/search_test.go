package core

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"sama/internal/align"
	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/textindex"
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

// TestVisitedWordsSuccessor replays seeded random successor walks over
// 1–9 clusters — the moves of the frontier loop, with bumps that cross
// every multiple of 64 of the last cluster's index and bumps onto the
// cluster-size bound — and checks the visited set at each step: the
// (word, bit) the loop derives in O(1) from the parent's equals
// visitWord's from scratch, and the set's add answers over the walk
// equal those of an exact set of the vectors.
func TestVisitedWordsSuccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	crossed := map[uint32]bool{} // the multiples of 64 a last-cluster bump reached
	for walk := 0; walk < 400; walk++ {
		v := make([]uint32, 1+rng.Intn(9))
		last := len(v) - 1
		for ci := range v {
			switch rng.Intn(4) {
			case 0:
				v[ci] = maxCandidatesBound - 2 - uint32(rng.Intn(3))
			case 1:
				v[ci] = uint32(rng.Intn(maxCandidatesBound - 1))
			}
		}
		if walk < 64 {
			// Start just below the walk's own multiple of 64, so the
			// first bumps of the last cluster cross it.
			v[last] = uint32(walk)<<14 + 62
		}
		set := newU64Set()
		seen := map[string]bool{}
		check := func(step int, got bool) {
			t.Helper()
			k := fmt.Sprint(v)
			if want := !seen[k]; got != want {
				t.Fatalf("walk %d step %d: add(%v) = %v, an exact set says %v", walk, step, v, got, want)
			}
			seen[k] = true
		}
		check(-1, set.addVec(v))
		key, bit := visitWord(v)
		for step := 0; step < 96; step++ {
			ci := last
			if rng.Intn(3) == 0 {
				ci = rng.Intn(len(v))
			}
			if v[ci]+1 >= maxCandidatesBound {
				continue
			}
			// The loop's derivation: swap cluster ci's word term; the bit
			// moves only with the last cluster.
			old, next, b := v[ci], v[ci]+1, bit
			if ci == last {
				old, next, b = v[ci]>>6, (v[ci]+1)>>6, (v[ci]+1)&63
			}
			nk := key - keyTerm(ci, old) + keyTerm(ci, next)
			v[ci]++
			if ci == last && v[ci]&63 == 0 {
				crossed[v[ci]] = true
			}
			if wk, wb := visitWord(v); nk != wk || b != wb {
				t.Fatalf("walk %d step %d: derived (%#x, %d), from scratch (%#x, %d) (%v)", walk, step, nk, b, wk, wb, v)
			}
			check(step, set.add(nk, b))
			// Re-offer an earlier vector now and then: the set must say
			// it is present.
			if rng.Intn(4) == 0 {
				v[ci]--
				check(step, set.addVec(v))
				v[ci]++
			}
			key, bit = nk, b
		}
	}
	if len(crossed) < 64 {
		t.Fatalf("the walks crossed %d distinct multiples of 64, want at least 64", len(crossed))
	}
	// Every multiple of 64 below the cluster-size bound, crossed from
	// its predecessor under a random prefix.
	for m := uint32(64); m < maxCandidatesBound; m += 64 {
		v := make([]uint32, 1+rng.Intn(9))
		for ci := range v {
			v[ci] = uint32(rng.Intn(maxCandidatesBound))
		}
		last := len(v) - 1
		v[last] = m - 1
		key, _ := visitWord(v)
		nk := key - keyTerm(last, (m-1)>>6) + keyTerm(last, m>>6)
		v[last] = m
		if wk, wb := visitWord(v); nk != wk || wb != 0 {
			t.Fatalf("crossing %d: derived (%#x, 0), from scratch (%#x, %d) (%v)", m, nk, wk, wb, v)
		}
	}
	// Word key 0, driven directly: each bit is fresh once.
	set := newU64Set()
	for b := uint32(0); b < 64; b++ {
		if !set.add(0, b) || set.add(0, b) {
			t.Fatalf("word key 0 bit %d: not fresh exactly once", b)
		}
	}
	if set.n != 1 {
		t.Fatalf("word key 0's 64 bits fill %d words, want 1", set.n)
	}
	// Distinct vectors key apart (spot check, not a collision proof).
	if comboKey([]uint32{1, 0}) == comboKey([]uint32{0, 1}) {
		t.Error("transposed vectors collide")
	}
}

// TestFrontierSlabsKeepLiveVectors drives the frontier's slab through
// alloc / release / regrow rounds and checks that every live handle
// still reads back the vector written to it — across slab growth (which
// moves the backing array) and handle reuse — and that an index at the
// cluster-size bound round-trips.
func TestFrontierSlabsKeepLiveVectors(t *testing.T) {
	const stride = 5
	q := &comboFrontier{stride: stride} // not pooled: the slab must start empty
	rng := rand.New(rand.NewSource(17))
	live := map[int32][stride]uint32{}
	check := func(when string) {
		t.Helper()
		for h, want := range live {
			if got := q.vec(h); !slices.Equal(got, want[:]) {
				t.Fatalf("%s: handle %d reads %v, want %v", when, h, got, want)
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
			var vec [stride]uint32
			for j := range vec {
				vec[j] = uint32(rng.Intn(maxCandidatesBound))
			}
			vec[rng.Intn(stride)] = maxCandidatesBound - 1
			copy(q.vec(h), vec[:])
			live[h] = vec
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
		// Released handles come back before the slab grows again.
		entries := len(q.idx)
		for i := 0; i < released; i++ {
			h := q.alloc()
			clear(q.vec(h))
			live[h] = [stride]uint32{}
		}
		if len(q.idx) != entries {
			t.Fatalf("round %d: slab grew by %d vectors with %d handles on the free list", round, (len(q.idx)-entries)/stride, released)
		}
		check(fmt.Sprintf("round %d after reuse", round))
	}
}

// refHeap is container/heap's view of the frontier's entries: the
// oracle for comboFrontier's sift.
type refHeap []frontierEntry

func (r refHeap) Len() int           { return len(r) }
func (r refHeap) Less(i, j int) bool { return r[i].lam < r[j].lam }
func (r refHeap) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }
func (r *refHeap) Push(x any)        { *r = append(*r, x.(frontierEntry)) }
func (r *refHeap) Pop() any {
	old := *r
	x := old[len(old)-1]
	*r = old[:len(old)-1]
	return x
}

// TestFrontierPopsLikeContainerHeap drives the frontier's heap and
// container/heap through the same random push/pop sequences over a
// handful of λ values — so nearly every comparison is a tie — and
// checks that every pop returns the same (λ, handle): equal-λ entries
// come out in container/heap's order, the layout invariant 4 rests on.
func TestFrontierPopsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for seq := 0; seq < 50; seq++ {
		q := &comboFrontier{stride: 1}
		var ref refHeap
		next := int32(0)
		for op := 0; op < 4000; op++ {
			if ref.Len() == 0 || rng.Intn(5) < 3 {
				e := frontierEntry{lam: float64(rng.Intn(1 + seq%6)), h: next}
				next++
				q.push(e.lam, e.h)
				heap.Push(&ref, e)
				continue
			}
			lam, h := q.pop()
			want := heap.Pop(&ref).(frontierEntry)
			if lam != want.lam || h != want.h {
				t.Fatalf("sequence %d op %d: popped (%v, %d), container/heap pops (%v, %d)", seq, op, lam, h, want.lam, want.h)
			}
		}
		if !slices.Equal(q.heap, ref) {
			t.Fatalf("sequence %d: heap layouts differ", seq)
		}
	}
}

// compatible is the per-item check the join pass's bitset kernel
// replaced, kept as its oracle: whether the item's whole substitution
// agrees with the accumulated bindings under full Term identity.
func compatible(subst rdf.Substitution, bound map[string]rdf.Term) bool {
	for name, val := range subst {
		if b, ok := bound[name]; ok && b != val {
			return false
		}
	}
	return true
}

// TestFirstCompatibleMatchesLinearScan checks the bitset kernel against
// the linear scan of compatible over random clusters: substitutions
// over a few shared variables with some absent from some items (and
// from whole clusters), bound variables no item binds, one variable
// only the cluster's own query path has (which no other cluster can
// bind, so the tables leave it out), a small term pool so bindings
// agree often, and cluster sizes on both sides of the 64-bit word and
// of maxChecksPerCol. found is the first compatible item below
// min(n, maxChecksPerCol), as extend scanned.
func TestFirstCompatibleMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	names := []string{"a", "b", "c", "d", "e", "f"}
	term := func() rdf.Term { return iri(fmt.Sprintf("T%d", rng.Intn(6))) }
	sizes := []int{1, 2, 63, 64, 65, 127, 128, 130, 511, 512, 513, 700}
	var eff []Cluster
	tt := &termTable{ids: map[rdf.Term]uint32{}}
	for ci, n := range sizes {
		own := fmt.Sprintf("own%d", ci)
		q := paths.Path{Nodes: []rdf.Term{vr(own)}}
		for _, nm := range names {
			q.Nodes = append(q.Nodes, vr(nm))
		}
		substs := make([]rdf.Substitution, n)
		for ii := range substs {
			substs[ii] = rdf.Substitution{own: term()}
			for _, nm := range names[:4+ci%2] { // "e" only in some clusters, "f" in none
				if rng.Intn(3) > 0 {
					substs[ii][nm] = term()
				}
			}
		}
		eff = append(eff, craftCluster(tt, q, substs))
	}
	for ci := range eff {
		eff[ci].terms = tt.terms
	}
	jt := newJoinTables(eff)
	for ci := range eff {
		jt.ensure(ci)
	}
	var none, firstWord, laterWord int
	for trial := 0; trial < 3000; trial++ {
		ci := rng.Intn(len(eff))
		bound := map[string]rdf.Term{}
		jt.boundNames, jt.boundTerms = jt.boundNames[:0], jt.boundTerms[:0]
		for _, nm := range names {
			if rng.Intn(2) == 0 {
				bound[nm] = term()
				jt.boundNames = append(jt.boundNames, jt.nameID[nm])
				jt.boundTerms = append(jt.boundTerms, tt.id(bound[nm]))
			}
		}
		want := -1
		for ii := 0; ii < min(len(eff[ci].Items), maxChecksPerCol); ii++ {
			if compatible(eff[ci].Alignment(ii).Subst, bound) {
				want = ii
				break
			}
		}
		if got := jt.firstCompatible(ci); got != want {
			t.Fatalf("trial %d, cluster of %d items, bound %v: kernel found %d, linear scan %d",
				trial, len(eff[ci].Items), bound, got, want)
		}
		switch {
		case want < 0:
			none++
		case want < 64:
			firstWord++
		default:
			laterWord++
		}
	}
	t.Logf("found none %d, in the first word %d, in a later word %d", none, firstWord, laterWord)
	if none == 0 || firstWord == 0 || laterWord == 0 {
		t.Error("some outcome never occurred: the check is partly vacuous")
	}
}

// termTable interns the terms of hand-made clusters, as the index
// dictionary does those of stored paths.
type termTable struct {
	terms []rdf.Term
	ids   map[rdf.Term]uint32
}

func (tt *termTable) id(t rdf.Term) uint32 {
	id, ok := tt.ids[t]
	if !ok {
		id = uint32(len(tt.terms))
		tt.ids[t], tt.terms = id, append(tt.terms, t)
	}
	return id
}

// craftCluster hand-makes a cluster for query path q whose item ii binds
// substs[ii] and has an empty path, its term IDs from tt. The caller
// sets its term table once tt holds every term.
func craftCluster(tt *termTable, q paths.Path, substs []rdf.Substitution) Cluster {
	c := Cluster{Query: q, vars: q.Vars(), Items: make([]ClusterItem, len(substs))}
	for ii, s := range substs {
		at := len(c.binds)
		for slot, name := range c.vars {
			if t, ok := s[name]; ok {
				c.binds = append(c.binds, binding{uint32(slot), tt.id(t)})
			}
		}
		c.Items[ii].subst = span{uint32(at), uint32(len(c.binds) - at)}
	}
	return c
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

// TestSearchBudgetGolden pins the budget-bound plateau of the search:
// Q11 and Q12 over LUBM 10 k under library defaults, searched at k = 10
// to three visit budgets. Every one of these searches ends at its
// budget, so the ranked answers are decided by the order among equal-λ
// combinations — the heap layout, the push order and the dedup keys of
// invariant 4. testdata/search_budget.golden holds the search span's
// counters and the fingerprint of every ranked answer; a change to the
// frontier loop or the join pass must reproduce it without -update.
func TestSearchBudgetGolden(t *testing.T) {
	g := datasets.LUBM{}.Generate(10000, 1)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var lines []string
	for _, id := range []string{"Q11", "Q12"} {
		for _, budget := range []int{1024, 8192, 65536} {
			e, pre, clusters := budgetBoundSearch(t, ix, Options{MaxCombinations: budget}, id)
			tr := obs.NewTrace()
			answers := e.searchTraced(context.Background(), pre, clusters, 10, tr)
			c := tr.Phases[0].Attrs
			lines = append(lines, fmt.Sprintf("%s budget=%d visited=%d joined=%d frontier_peak=%d budget_stop=%d",
				id, budget, c["visited"], c["joined"], c["frontier_peak"], c["budget_stop"]))
			for i, a := range answers {
				lines = append(lines, fmt.Sprintf("%s budget=%d #%d %s", id, budget, i, fingerprint(a)))
			}
		}
	}
	checkGolden(t, "search_budget.golden", lines)
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

// settledGoroutines waits (up to a second) for the goroutine count to
// fall to at most n and returns it.
func settledGoroutines(n int) int {
	got := runtime.NumGoroutine()
	for i := 0; i < 100 && got > n; i++ {
		time.Sleep(10 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	return got
}

// TestCancelledSearchJoinsNothing checks the join pass that runs beside
// the walk under a context cancelled before the search: the walk stops
// at once, the join's combinations are dropped (joined = 0, as when the
// pass was skipped), and the join goroutine does not outlive the search.
func TestCancelledSearchJoinsNothing(t *testing.T) {
	g := datasets.LUBM{}.Generate(6000, 7)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	e, pre, clusters := budgetBoundSearch(t, ix, Options{}, "Q11")
	if c := searchCounters(e, pre, clusters, 10); c["joined"] == 0 {
		t.Fatalf("uncancelled search span %v joins nothing: the check would be vacuous", c)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		tr := obs.NewTrace()
		e.searchTraced(ctx, pre, clusters, 10, tr)
		if c := tr.Phases[0].Attrs; c["joined"] != 0 || c["cancelled"] != 1 || c["visited"] != 0 {
			t.Fatalf("cancelled search span %v, want joined=0 cancelled=1 visited=0", c)
		}
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("%d goroutines after the cancelled searches, %d before", n, before)
	}
}

// TestSearchCancelledMidWalk cancels a budget-bound Q11 walk from a
// timer, doubling the delay until the cancel lands inside the walk: the
// span shows cancelled=1 after some visits and fewer than the full
// run's. The walk polls done every 64 visits, so it stops at a multiple
// of 64. The prefix must be score-ordered and no better than the full
// run at any rank: the full run ranked every combination it did.
func TestSearchCancelledMidWalk(t *testing.T) {
	g := datasets.LUBM{}.Generate(6000, 7)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	e, pre, clusters := budgetBoundSearch(t, ix, Options{}, "Q11")
	trFull := obs.NewTrace()
	full := e.searchTraced(context.Background(), pre, clusters, 10, trFull)
	fc := trFull.Phases[0].Attrs
	if fc["budget_stop"] != 1 {
		t.Fatalf("uncancelled search span %v, want a budget stop", fc)
	}
	for delay := 20 * time.Microsecond; delay < time.Second; delay *= 2 {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		tr := obs.NewTrace()
		prefix := e.searchTraced(ctx, pre, clusters, 10, tr)
		timer.Stop()
		cancel()
		c := tr.Phases[0].Attrs
		if c["cancelled"] != 1 || c["visited"] == 0 || c["visited"] >= fc["visited"] {
			continue
		}
		t.Logf("cancelled after %v: span %v", delay, c)
		if c["visited"]%64 != 0 {
			t.Errorf("the walk stopped after %d visits, want a multiple of 64", c["visited"])
		}
		sortedByScore(t, prefix)
		if len(prefix) > len(full) {
			t.Fatalf("the prefix has %d answers, the full run %d", len(prefix), len(full))
		}
		for i := range prefix {
			if prefix[i].Score < full[i].Score {
				t.Errorf("prefix[%d].Score = %v beats the full run's %v", i, prefix[i].Score, full[i].Score)
			}
		}
		return
	}
	t.Fatal("no delay landed the cancel inside the walk")
}

// TestProvenStopRejectsTheRest checks the bound break against the walk
// it cuts short, over LUBM 10 k under the benchmark's thesaurus: Q1–Q10
// and the cluster_param shapes over every department, at k = 10. Every
// search whose span reports bound_break is replayed (recordWalk) past
// its stop, up to the horizon the loop has without the break — the
// uniform bound, the tie horizon, the visit budget — and its join pass
// is run whole. The top k at the stop must be the search's answers, and
// resultList.add must reject every further pop and every joined
// combination the walk had not visited.
func TestProvenStopRejectsTheRest(t *testing.T) {
	g := datasets.LUBM{}.Generate(10000, 1)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g,
		index.Options{Thesaurus: textindex.BenchmarkThesaurus()})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	e := New(ix, Options{})
	defer e.Close()
	qs := clusterParamQueries(t, g)
	for _, q := range workload.LUBMQueries()[:10] {
		qs = append(qs, goldenQuery{id: q.ID, q: q.Pattern})
	}
	same := func(a, b []scored) bool {
		return slices.EqualFunc(a, b, func(x, y scored) bool {
			return x.score == y.score && x.degree == y.degree && slices.Equal(x.idx, y.idx)
		})
	}
	proofs, pops, joined := 0, 0, 0
	for _, gq := range qs {
		pre := e.Preprocess(gq.q)
		clusters, err := e.Cluster(pre)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		answers := e.searchTraced(context.Background(), pre, clusters, 10, tr)
		c := tr.Phases[0].Attrs
		if c["bound_break"] != 1 {
			continue
		}
		proofs++
		stop := int(c["visited"])
		ps, w := recordWalk(e, pre, clusters, e.opts.maxCombinations())
		psiMinU := e.par.E * float64(len(ps.pairs))
		rl := resultList{k: 10}
		var frozen []scored
		seen := newU64Set()
		tieVisits := 0
		for i, lam := range w.lambda {
			if i == stop {
				for _, s := range rl.results {
					s.idx = slices.Clone(s.idx)
					frozen = append(frozen, s)
				}
				if len(frozen) != len(answers) {
					t.Fatalf("%s: %d answers, %d ranked at the stop", gq.id, len(answers), len(frozen))
				}
				for r, a := range answers {
					if a.Score != frozen[r].score || a.Degree != frozen[r].degree {
						t.Fatalf("%s #%d: answer (%v, %v), ranked at the stop (%v, %v)",
							gq.id, r, a.Score, a.Degree, frozen[r].score, frozen[r].degree)
					}
				}
			}
			if wk := rl.worst(); wk >= 0 {
				if lb := lam + psiMinU; lb > wk {
					break
				} else if lb == wk {
					if tieVisits++; tieVisits > maxTieVisits {
						break
					}
				}
			}
			psi, degree := ps.score(w.vec(i))
			rl.add(w.vec(i), lam, psi, degree)
			if i < stop {
				seen.addVec(w.vec(i))
			} else if pops++; !same(rl.results, frozen) {
				t.Fatalf("%s: pop %d (stop at %d) entered the top k", gq.id, i, stop)
			}
		}
		if ps.jt == nil {
			continue
		}
		eff, missing, missed := splitEffective(clusters)
		basePenalty := e.missPenalty(pre, missing, missed)
		combos, _ := joinCombos(eff, ps, nil)
		for _, idx := range combos {
			if !seen.addVec(idx) {
				continue
			}
			joined++
			psi, degree := ps.score(idx)
			rl.add(idx, ps.comboLambda(idx)+basePenalty, psi, degree)
			if !same(rl.results, frozen) {
				t.Fatalf("%s: joined combination %v entered the top k", gq.id, idx)
			}
		}
	}
	t.Logf("%d of %d searches proved; %d pops and %d joined combinations past a stop rejected", proofs, len(qs), pops, joined)
	if proofs == 0 || pops == 0 || joined == 0 {
		t.Fatal("vacuous: no proof stop cut a walk or a join short")
	}
}

// TestJoinStartsOnlyWithTables checks that a search whose query cannot
// join — a single effective cluster, or clusters with no
// intersection-graph pair — starts no join goroutine, and that one that
// can join starts it.
func TestJoinStartsOnlyWithTables(t *testing.T) {
	g := datasets.LUBM{}.Generate(3000, 7)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	check := func(name string, e *Engine, pre *Preprocessed, eff []Cluster, want bool) {
		t.Helper()
		ps := newPairScorer(e, pre, eff)
		before := runtime.NumGoroutine()
		ch := startJoin(eff, ps, nil)
		if (ch != nil) != want {
			t.Fatalf("%s: %d clusters, %d pairs: join started %v, want %v", name, len(eff), len(ps.pairs), ch != nil, want)
		}
		if ch == nil {
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("%s: %d goroutines after startJoin, %d before", name, n, before)
			}
			return
		}
		if res := <-ch; !res.ok || res.panicked != nil {
			t.Errorf("%s: join result ok=%v panicked=%v", name, res.ok, res.panicked)
		}
	}
	for _, id := range []string{"Q1", "Q3", "Q11"} {
		e, pre, clusters := budgetBoundSearch(t, ix, Options{}, id)
		eff, _, _ := splitEffective(clusters)
		check(id, e, pre, eff, id == "Q11")
	}

	// Two clusters whose query paths share no node: no pair, no join.
	tt := &termTable{ids: map[rdf.Term]uint32{}}
	q0 := paths.Path{Nodes: []rdf.Term{vr("a"), iri("x")}, Edges: []rdf.Term{iri("p")}}
	q1 := paths.Path{Nodes: []rdf.Term{vr("b"), iri("y")}, Edges: []rdf.Term{iri("q")}}
	eff := []Cluster{
		craftCluster(tt, q0, []rdf.Substitution{{"a": iri("A")}}),
		craftCluster(tt, q1, []rdf.Substitution{{"b": iri("B")}}),
	}
	eff[1].QueryIndex = 1
	for ci := range eff {
		eff[ci].terms = tt.terms
	}
	pre := &Preprocessed{Paths: []paths.Path{q0, q1}, IG: make([][]IGEdge, 2)}
	check("disjoint", newTestEngine(t, Options{}), pre, eff, false)
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
			b.ReportMetric(float64(c["joined"]), "joined")
			b.ReportMetric(float64(c["frontier_peak"]), "frontier_peak")
		})
	}
}

// BenchmarkSearchMix times the search phase alone on the small
// lattices, each searched at k = 10 per lap, clustered once outside the
// timer: Q1–Q10 of the LUBM mix over LUBM 10 k under library defaults
// (the query shapes of read_after_write), and the cluster_param band's
// P5 and P6 shapes over every department of LUBM 10 k under the
// benchmark's thesaurus. It reports the visits per lap. `make profile`
// profiles this benchmark.
func BenchmarkSearchMix(b *testing.B) {
	g := datasets.LUBM{}.Generate(10000, 1)
	type clustered struct {
		e        *Engine
		pre      *Preprocessed
		clusters []Cluster
	}
	var mix []clustered
	add := func(opts index.Options, qs []goldenQuery) {
		ix, err := index.Build(filepath.Join(b.TempDir(), "lubm"), g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ix.Close() })
		e := New(ix, Options{})
		b.Cleanup(e.Close)
		for _, q := range qs {
			pre := e.Preprocess(q.q)
			clusters, err := e.Cluster(pre)
			if err != nil {
				b.Fatal(err)
			}
			mix = append(mix, clustered{e, pre, clusters})
		}
	}
	var lubm, dept []goldenQuery
	for _, q := range workload.LUBMQueries()[:10] {
		lubm = append(lubm, goldenQuery{id: q.ID, q: q.Pattern})
	}
	for _, q := range clusterParamQueries(b, g) {
		if strings.HasPrefix(q.id, "P5 ") || strings.HasPrefix(q.id, "P6 ") {
			dept = append(dept, q)
		}
	}
	add(index.Options{}, lubm)
	add(index.Options{Thesaurus: textindex.BenchmarkThesaurus()}, dept)
	visited := int64(0)
	for _, m := range mix {
		visited += searchCounters(m.e, m.pre, m.clusters, 10)["visited"]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mix {
			m.e.Search(m.pre, m.clusters, 10)
		}
	}
	b.ReportMetric(float64(visited), "visited/lap")
}

// layerWalk is one recorded budget-bound walk of the search loop: the
// popped vectors in order (flat, stride len(eff)) with their λ, and the
// (word, bit) probes their successors offered to the visited set, in
// the loop's order.
type layerWalk struct {
	stride int
	pops   []uint32
	lambda []float64
	probes []visitProbe
}

type visitProbe struct {
	key uint64
	bit uint32
}

func (w *layerWalk) vec(i int) []uint32 { return w.pops[i*w.stride : (i+1)*w.stride] }

// layerSink keeps BenchmarkSearchLayers' scoring from being optimised
// away.
var layerSink float64

// recordWalk replays the frontier loop's pops and pushes for budget
// visits. The termination bounds only ever end a walk, so up to a
// search that stops at its budget the pops are the search's own.
func recordWalk(e *Engine, pre *Preprocessed, clusters []Cluster, budget int) (*pairScorer, *layerWalk) {
	eff, missing, missed := splitEffective(clusters)
	basePenalty := e.missPenalty(pre, missing, missed)
	ps := newPairScorer(e, pre, eff)
	w := &layerWalk{stride: len(eff)}
	q := getFrontier(len(eff))
	set := newU64Set()
	start := q.alloc()
	clear(q.vec(start))
	q.push(ps.comboLambda(q.vec(start))+basePenalty, start)
	set.addVec(q.vec(start))
	next := make([]uint32, len(eff))
	for len(w.lambda) < budget && q.len() > 0 {
		lam, h := q.pop()
		w.pops = append(w.pops, q.vec(h)...)
		w.lambda = append(w.lambda, lam)
		var fresh []int
		for ci := range eff {
			if int(q.vec(h)[ci])+1 >= len(eff[ci].Items) {
				continue
			}
			copy(next, q.vec(h))
			next[ci]++
			key, bit := visitWord(next)
			w.probes = append(w.probes, visitProbe{key, bit})
			if set.add(key, bit) {
				fresh = append(fresh, ci)
			}
		}
		for _, ci := range fresh {
			nh := q.alloc()
			copy(q.vec(nh), q.vec(h))
			q.vec(nh)[ci]++
			q.push(ps.comboLambda(q.vec(nh))+basePenalty, nh)
		}
		q.release(h)
	}
	return ps, w
}

// BenchmarkSearchLayers times layers of the search apart over LUBM 10 k
// (library defaults). Three replay Q11's budget-bound walk, recorded
// once outside the timer: visited replays the walk's successor probes
// into a recycled visited set (ns per probe, and the table's bytes),
// score folds Ψ and degree for each popped combination, and topk ranks
// the scored pops into a top-10 list (ns per combination). Two time the
// join pass that runs beside the walk, on pair scorers built outside
// the timer: join is joinCombos over Q11's clusters (ns per pass, and
// the combinations it builds), join_mix the same over those of Q1–Q10
// that join, summed per lap. `make profile` profiles this benchmark.
func BenchmarkSearchLayers(b *testing.B) {
	g := datasets.LUBM{}.Generate(10000, 1)
	ix, err := index.Build(filepath.Join(b.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	e, pre, clusters := budgetBoundSearch(b, ix, Options{}, "Q11")
	c := searchCounters(e, pre, clusters, 10)
	ps, w := recordWalk(e, pre, clusters, e.opts.maxCombinations())
	if c["budget_stop"] != 1 || int64(len(w.lambda)) != c["visited"] {
		b.Fatalf("recorded %d pops; the search span is %v, want a budget stop at as many visits", len(w.lambda), c)
	}
	psi := make([]float64, len(w.lambda))
	degree := make([]float64, len(w.lambda))
	for i := range w.lambda {
		psi[i], degree[i] = ps.score(w.vec(i))
	}
	perOp := func(b *testing.B, n int, unit string) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), unit)
	}
	b.Run("visited", func(b *testing.B) {
		var s *u64Set
		for i := 0; i < b.N; i++ {
			s = getU64Set()
			for _, p := range w.probes {
				s.add(p.key, p.bit)
			}
			u64SetPool.Put(s)
		}
		perOp(b, len(w.probes), "ns/probe")
		b.ReportMetric(float64(len(s.slots))*float64(unsafe.Sizeof(visitSlot{})), "table_B")
		b.ReportMetric(float64(s.n), "words")
	})
	b.Run("score", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			for j := range w.lambda {
				psi, _ := ps.score(w.vec(j))
				sum += psi
			}
		}
		perOp(b, len(w.lambda), "ns/combination")
		layerSink = sum
	})
	b.Run("topk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rl := resultList{k: 10}
			for j, lam := range w.lambda {
				rl.add(w.vec(j), lam, psi[j], degree[j])
			}
		}
		perOp(b, len(w.lambda), "ns/combination")
	})
	// The join passes, their pair scorers built outside the timer: Q11's,
	// and those of Q1–Q10 that join.
	joins := map[string][]func() int{}
	for _, q := range workload.LUBMQueries()[:11] {
		qpre := e.Preprocess(q.Pattern)
		qcs, err := e.Cluster(qpre)
		if err != nil {
			b.Fatal(err)
		}
		eff, _, _ := splitEffective(qcs)
		if ps := newPairScorer(e, qpre, eff); ps.jt != nil {
			name := map[bool]string{true: "join", false: "join_mix"}[q.ID == "Q11"]
			joins[name] = append(joins[name], func() int { out, _ := joinCombos(eff, ps, nil); return len(out) })
		}
	}
	if len(joins["join"]) != 1 || len(joins["join_mix"]) == 0 {
		b.Fatalf("%d join passes for Q11 and %d for Q1–Q10; the benchmark needs both", len(joins["join"]), len(joins["join_mix"]))
	}
	for _, run := range [][2]string{{"join", "ns/pass"}, {"join_mix", "ns/lap"}} {
		name, unit := run[0], run[1]
		b.Run(name, func(b *testing.B) {
			combos := 0
			for i := 0; i < b.N; i++ {
				combos = 0
				for _, pass := range joins[name] {
					combos += pass()
				}
			}
			perOp(b, 1, unit)
			b.ReportMetric(float64(combos), "combos")
		})
	}
}
