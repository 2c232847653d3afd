package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"
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

// TestVisitedSetRestartsSmall: a visited set that a large search grew
// starts the next search in its small table — what a small search
// after a large one clears and probes — and grows back into the large
// table it kept without allocating, answering add exactly as a fresh
// set each time.
func TestVisitedSetRestartsSmall(t *testing.T) {
	s := newU64Set()
	small := len(s.slots)
	fill := func(words uint64) {
		for k := uint64(1); k <= words; k++ {
			for b := uint32(0); b < 2; b++ {
				if !s.add(k*0x9e3779b97f4a7c15, b) {
					t.Fatalf("word %d bit %d: add reported a fresh entry as present", k, b)
				}
			}
			if s.add(k*0x9e3779b97f4a7c15, 0) {
				t.Fatalf("word %d: add reported a present entry as fresh", k)
			}
		}
	}
	fill(20000)
	large := len(s.slots)
	if large <= small {
		t.Fatalf("20 000 words fit the small table of %d slots", small)
	}
	for _, words := range []uint64{100, 20000} {
		s.reset()
		if len(s.slots) != small || s.n != 0 {
			t.Fatalf("after reset: %d slots, %d words; want %d slots, none", len(s.slots), s.n, small)
		}
		if allocs := testing.AllocsPerRun(1, func() { s.reset(); fill(words) }); allocs != 0 {
			t.Errorf("%d words after a reset: %.0f allocations, want none", words, allocs)
		}
		if want := map[bool]int{false: small, true: large}[words > 700]; len(s.slots) != want {
			t.Errorf("%d words after a reset: %d slots, want %d", words, len(s.slots), want)
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
// checks that every pop returns the same (λ, parent, ci): equal-λ
// entries come out in container/heap's order, the layout invariant 4
// rests on.
func TestFrontierPopsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for seq := 0; seq < 50; seq++ {
		q := &comboFrontier{stride: 1}
		var ref refHeap
		next := int32(0)
		for op := 0; op < 4000; op++ {
			if ref.Len() == 0 || rng.Intn(5) < 3 {
				e := frontierEntry{lam: float64(rng.Intn(1 + seq%6)), parent: next, ci: int32(rng.Intn(7))}
				next++
				q.push(e.lam, e.parent, e.ci)
				heap.Push(&ref, e)
				continue
			}
			lam, parent, ci := q.pop()
			want := heap.Pop(&ref).(frontierEntry)
			if got := (frontierEntry{lam, parent, ci}); got != want {
				t.Fatalf("sequence %d op %d: popped %+v, container/heap pops %+v", seq, op, got, want)
			}
		}
		if !slices.Equal(q.heap, ref) {
			t.Fatalf("sequence %d: heap layouts differ", seq)
		}
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
// the frontier: the same budget-bound query searched to 4 096 and to
// 65 536 visits may differ by regrowths of the heap and the pop log (a
// pooled frontier can be dropped by the collector, and append regrows a
// slice a few dozen times on the way up), not by anything per visited
// or pushed combination.
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
		t.Errorf("61 440 more visits cost %.0f more allocations (%v); want slice regrowths only", extra, allocs)
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

// checkWalkRows checks every pop of a recorded walk against its
// definition: its λ has the bits of comboLambda(vec) + basePenalty, the
// canonical fold; its (ψ, degree) have the bits of score(vec), and on a
// walk that carries its χa word is the one chiWord builds from scratch
// (a walk that does not carries no word); and its vector is its parent
// pop's plus exactly one bump (the start's is all zeros). It returns the
// number of pops whose λ the walk reused from their parent, bits
// unchanged.
func checkWalkRows(t *testing.T, id string, ps *pairScorer, w *layerWalk, basePenalty float64) (reused int) {
	t.Helper()
	if words := w.width - w.stride; words != ps.words || ps.carry != (words > 0) {
		t.Fatalf("%s: %d words a row, the scorer has %d (carry %v)", id, words, ps.words, ps.carry)
	}
	for i, lam := range w.lambda {
		vec := w.vec(i)
		if want := ps.comboLambda(vec) + basePenalty; math.Float64bits(lam) != math.Float64bits(want) {
			t.Fatalf("%s pop %d %v: λ %v (%#x), comboLambda gives %v (%#x)", id, i, vec, lam, math.Float64bits(lam), want, math.Float64bits(want))
		}
		if want := ps.chiWord(vec); ps.carry && w.word(i) != want {
			t.Fatalf("%s pop %d %v: χa word %#x, built from scratch %#x", id, i, vec, w.word(i), want)
		}
		if psi, degree := ps.score(vec); math.Float64bits(w.psi[i]) != math.Float64bits(psi) || math.Float64bits(w.degree[i]) != math.Float64bits(degree) {
			t.Fatalf("%s pop %d %v: (ψ, degree) (%v, %v), score gives (%v, %v)", id, i, vec, w.psi[i], w.degree[i], psi, degree)
		}
		p := int(w.parent[i])
		if p < 0 {
			if i != 0 || slices.ContainsFunc(vec, func(x uint32) bool { return x != 0 }) {
				t.Fatalf("%s pop %d %v: no parent, want the all-zero start at pop 0", id, i, vec)
			}
			continue
		}
		if p >= i {
			t.Fatalf("%s pop %d: parent pop %d is not earlier", id, i, p)
		}
		bumps := 0
		for ci, ii := range vec {
			switch ii {
			case w.vec(p)[ci]:
			case w.vec(p)[ci] + 1:
				bumps++
			default:
				bumps = 2
			}
		}
		if bumps != 1 {
			t.Fatalf("%s pop %d %v: not its parent pop %d %v plus one bump", id, i, vec, p, w.vec(p))
		}
		if lam == w.lambda[p] {
			reused++
		}
	}
	return reused
}

// TestProvenStopRejectsTheRest checks the bound break against the walk
// it cuts short, over LUBM 10 k under the benchmark's thesaurus: Q1–Q10
// and the cluster_param shapes over every department, at k = 10. Every
// search whose span reports bound_break is replayed (recordWalk) past
// its stop, up to the horizon the loop has without the break — the
// uniform bound, the tie horizon, the visit budget — and its join pass
// is run whole. Every recorded pop must be what it stands for
// (checkWalkRows), the top k at the stop must be the search's answers,
// and resultList.add must reject every further pop and every joined
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
	// A crafted walk first: its first cluster has two adjacent costs an
	// ulp apart, which a tolerance would call equal, so a successor that
	// reused its parent's λ on anything but equal bits shows.
	tt := &termTable{ids: map[rdf.Term]uint32{}}
	q0 := paths.Path{Nodes: []rdf.Term{vr("a"), iri("x")}, Edges: []rdf.Term{iri("p")}}
	q1 := paths.Path{Nodes: []rdf.Term{vr("b"), iri("y")}, Edges: []rdf.Term{iri("q")}}
	crafted := []Cluster{
		craftCluster(tt, q0, make([]rdf.Substitution, 4)),
		craftCluster(tt, q1, make([]rdf.Substitution, 2)),
	}
	for ci, costs := range [][]float64{{0, 0.3, math.Nextafter(0.3, 1), 0.5}, {0, 0.5}} {
		crafted[ci].QueryIndex, crafted[ci].terms = ci, tt.terms
		for ii, cost := range costs {
			crafted[ci].Items[ii].Cost = cost
		}
	}
	craftedPre := &Preprocessed{Paths: []paths.Path{q0, q1}, IG: make([][]IGEdge, 2)}
	ps, w := recordWalk(e, craftedPre, crafted, e.opts.maxCombinations())
	if len(w.lambda) != 8 {
		t.Fatalf("the crafted walk popped %d combinations, want all 8", len(w.lambda))
	}
	checkWalkRows(t, "crafted", ps, w, 0)

	proofs, pops, joined, rows, reused := 0, 0, 0, 0, 0
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
		eff, missing, missed := splitEffective(clusters)
		basePenalty := e.missPenalty(pre, missing, missed)
		rows += len(w.lambda)
		reused += checkWalkRows(t, gq.id, ps, w, basePenalty)
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
	t.Logf("%d of %d searches proved; %d recorded pops checked, %d with their parent's λ; %d pops and %d joined combinations past a stop rejected",
		proofs, len(qs), rows, reused, pops, joined)
	if proofs == 0 || pops == 0 || joined == 0 || reused == 0 || reused == rows {
		t.Fatal("vacuous: no proof stop cut a walk or a join short, or no walk both reused and folded λ")
	}
}

// ringClusters crafts clusters for the carry: n clusters on a ring,
// each neighbour's query path sharing three variables with it (χQ = 3, a
// 2-bit field of the χa word), so each cluster touches 2 of the n pairs.
// Every item binds each of its variables to one of two terms drawn from
// rng, so a pair's χa ranges over 0…3, and its cost is a quarter of its
// rank.
func ringClusters(n, items int, rng *rand.Rand) (*Preprocessed, []Cluster) {
	tt := &termTable{ids: map[rdf.Term]uint32{}}
	shared := func(i int) []rdf.Term {
		i = (i + n) % n
		return []rdf.Term{vr(fmt.Sprint("r", i, "a")), vr(fmt.Sprint("r", i, "b")), vr(fmt.Sprint("r", i, "c"))}
	}
	pre := &Preprocessed{IG: make([][]IGEdge, n)}
	clusters := make([]Cluster, n)
	for i := range clusters {
		nodes := append(shared(i-1), shared(i)...)
		edges := make([]rdf.Term, len(nodes)-1)
		for x := range edges {
			edges[x] = iri("p")
		}
		q := paths.Path{Nodes: nodes, Edges: edges}
		substs := make([]rdf.Substitution, items)
		for ii := range substs {
			substs[ii] = rdf.Substitution{}
			for _, x := range nodes {
				substs[ii][x.Value] = iri(fmt.Sprint("t", rng.Intn(2)))
			}
		}
		clusters[i] = craftCluster(tt, q, substs)
		clusters[i].QueryIndex = i
		for ii := range clusters[i].Items {
			clusters[i].Items[ii].Cost = float64(ii) / 4
		}
		pre.Paths = append(pre.Paths, q)
		pre.IG[i] = []IGEdge{{To: (i + 1) % n, Chi: 3}, {To: (i + n - 1) % n, Chi: 3}}
	}
	for i := range clusters {
		clusters[i].terms = tt.terms
	}
	return pre, clusters
}

// TestCarriedScoresEqualScore is the pop-by-pop oracle of the carry:
// every pop of a recorded walk, scored by the walk's own popScore, must
// have the χa word chiWord builds from scratch and the (ψ, degree) bits
// of score (checkWalkRows). It walks Q1–Q12 over LUBM 10 k under library
// defaults, which fall on both sides of the carry rule, Q11 under
// Options.RawChi (χ functions: no carry), and crafted rings: six
// clusters of four items, whose 4 096 combinations put distinct words
// with distinct folds on one memo slot; twenty clusters, a 40-bit word
// in two uint32s; and thirty-three, 66 bits, too wide to carry.
func TestCarriedScoresEqualScore(t *testing.T) {
	g := datasets.LUBM{}.Generate(10000, 1)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	check := func(id string, e *Engine, pre *Preprocessed, clusters []Cluster, budget int) (*pairScorer, *layerWalk) {
		t.Helper()
		ps, w := recordWalk(e, pre, clusters, budget)
		eff, missing, missed := splitEffective(clusters)
		checkWalkRows(t, id, ps, w, e.missPenalty(pre, missing, missed))
		touched := 0
		for ci := range eff {
			touched = max(touched, len(ps.touch[ci]))
		}
		t.Logf("%s: %d pops, %d clusters, %d pairs, at most %d on a cluster, carry %v", id, len(w.lambda), len(eff), len(ps.pairs), touched, ps.carry)
		return ps, w
	}
	sides := map[bool]int{}
	for _, q := range workload.LUBMQueries() {
		e, pre, clusters := budgetBoundSearch(t, ix, Options{}, q.ID)
		ps, _ := check(q.ID, e, pre, clusters, e.opts.maxCombinations())
		sides[ps.carry]++
	}
	if sides[true] == 0 || sides[false] == 0 {
		t.Fatalf("Q1–Q12 carry on %d walks and not on %d: both sides of the rule must be walked", sides[true], sides[false])
	}
	e, pre, clusters := budgetBoundSearch(t, ix, Options{RawChi: true}, "Q11")
	if ps, _ := check("Q11 raw", e, pre, clusters, 4096); ps.carry {
		t.Fatal("a walk whose pairs score through χ functions carries")
	}

	e = newTestEngine(t, Options{})
	rng := rand.New(rand.NewSource(5))
	pre, clusters = ringClusters(6, 4, rng)
	ps, w := check("ring 6", e, pre, clusters, 1<<20)
	if !ps.carry || ps.words != 1 || len(w.lambda) != 4096 {
		t.Fatalf("ring 6: carry %v in %d words over %d pops, want a one-word carry over all 4 096", ps.carry, ps.words, len(w.lambda))
	}
	// Two distinct words with distinct folds on one slot: a memo keyed by
	// its slot alone would hand the second the first one's fold.
	first := map[uint8]int{} // a memo slot's first pop
	collided := false
	for i := range w.lambda {
		f, ok := first[memoSlot(w.word(i))]
		if !ok {
			first[memoSlot(w.word(i))] = i
			continue
		}
		collided = collided || w.word(f) != w.word(i) && (w.psi[f] != w.psi[i] || w.degree[f] != w.degree[i])
	}
	if !collided {
		t.Fatal("ring 6: no two words of the walk share a memo slot")
	}
	pre, clusters = ringClusters(20, 2, rng)
	if ps, _ := check("ring 20", e, pre, clusters, 4096); !ps.carry || ps.words != 2 {
		t.Fatalf("ring 20: carry %v in %d words, want a two-word carry", ps.carry, ps.words)
	}
	pre, clusters = ringClusters(33, 2, rng)
	if ps, _ := check("ring 33", e, pre, clusters, 4096); ps.carry {
		t.Fatal("ring 33: a 66-bit word carries")
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

// TestJoinKeysOnTermIdentity checks that the join pass keys its hash
// join by term identity, as χa compares bindings: two clusters share ?x,
// the smaller (build) one binds it to the IRI <k> and then to the
// literal "k" — one Label() — and the larger one's first item binds the
// literal. Every joined combination must then score χa = χQ on every
// pair: a key by label would seed the literal with the IRI, χa = 0.
func TestJoinKeysOnTermIdentity(t *testing.T) {
	tt := &termTable{ids: map[rdf.Term]uint32{}}
	q0 := paths.Path{Nodes: []rdf.Term{vr("x"), iri("a")}, Edges: []rdf.Term{iri("p")}}
	q1 := paths.Path{Nodes: []rdf.Term{vr("x"), iri("b")}, Edges: []rdf.Term{iri("q")}}
	eff := []Cluster{
		craftCluster(tt, q0, []rdf.Substitution{{"x": iri("k")}, {"x": lit("k")}}),
		craftCluster(tt, q1, []rdf.Substitution{{"x": lit("k")}, {"x": iri("z")}, {"x": lit("z")}}),
	}
	for ci := range eff {
		eff[ci].QueryIndex, eff[ci].terms = ci, tt.terms
	}
	pre := &Preprocessed{Paths: []paths.Path{q0, q1}, IG: [][]IGEdge{{{To: 1, Chi: 1}}, {{To: 0, Chi: 1}}}}
	ps := newPairScorer(newTestEngine(t, Options{}), pre, eff)
	if ps.jt == nil {
		t.Fatal("the two clusters cannot join: the check would be vacuous")
	}
	combos, ok := joinCombos(eff, ps, nil)
	if !ok || len(combos) == 0 {
		t.Fatalf("join returned %d combinations, ok=%v; want some", len(combos), ok)
	}
	for _, idx := range combos {
		if _, degree := ps.score(idx); degree != float64(len(ps.pairs)) {
			t.Errorf("joined combination %v has degree %v, want %d (χa = χQ on every pair)", idx, degree, len(ps.pairs))
		}
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
			b.ReportMetric(float64(c["joined"]), "joined")
			b.ReportMetric(float64(c["frontier_peak"]), "frontier_peak")
		})
	}
}

// BenchmarkSearchAfterBudgetBound times Q9's search over the benchmark's
// 50 k LUBM base (library defaults, k = 10, clustered once outside the
// timer) alone and right after an untimed Q11 searched to its visit
// budget, whose visited table is the largest of the mix: what a small
// search pays for the state a large one left behind.
func BenchmarkSearchAfterBudgetBound(b *testing.B) {
	ts := datasets.LUBM{}.Generate(55000, 1).Triples()[:50000]
	g, err := rdf.NewGraphFromTriples(ts)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := index.Build(filepath.Join(b.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	e9, pre9, clusters9 := budgetBoundSearch(b, ix, Options{}, "Q9")
	e11, pre11, clusters11 := budgetBoundSearch(b, ix, Options{}, "Q11")
	for _, after := range []bool{false, true} {
		name := "Q9"
		if after {
			name = "Q9_after_Q11"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if after {
					b.StopTimer()
					e11.Search(pre11, clusters11, 10)
					b.StartTimer()
				}
				if len(e9.Search(pre9, clusters9, 10)) == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

// BenchmarkSearchMix times the search phase alone on the small
// lattices, each searched at k = 10 per lap, clustered once outside the
// timer: Q1–Q10 of the LUBM mix over LUBM 10 k under library defaults
// (the query shapes of read_after_write), and the cluster_param band's
// P2, P5, P6 and P10 shapes over every department of LUBM 10 k under
// the benchmark's thesaurus — P2 and P10 walk to the tie horizon, and
// none of these walks carries χa words (pairScorer.carry). It reports
// the visits per lap. `make profile` profiles this benchmark.
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
		if sh, _, _ := strings.Cut(q.id, " "); slices.Contains([]string{"P2", "P5", "P6", "P10"}, sh) {
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
// frontier's pop log (the popped rows in order, width long: the vector,
// stride len(eff), then a carrying walk's χa word) with each pop's λ,
// parent pop (−1 for the start), bumped cluster and the (ψ, degree) the
// walk's popScore gave it, the (word, bit) probes their successors
// offered to the visited set, in the loop's order, and the frontier's
// pushes — the start's, then each pop's (npush[i] of them) in order.
type layerWalk struct {
	stride, width  int
	pops           []uint32
	lambda         []float64
	parent, bumped []int32
	psi, degree    []float64
	probes         []visitProbe
	pushes         []frontierEntry
	npush          []int
}

type visitProbe struct {
	key uint64
	bit uint32
}

func (w *layerWalk) vec(i int) []uint32 { return w.pops[i*w.width : i*w.width+w.stride] }

// word is pop i's χa word as its row holds it (0 when the walk does not
// carry).
func (w *layerWalk) word(i int) uint64 {
	var x uint64
	for j, u := range w.pops[i*w.width+w.stride : (i+1)*w.width] {
		x |= uint64(u) << (32 * j)
	}
	return x
}

// layerSink keeps BenchmarkSearchLayers' scoring from being optimised
// away.
var layerSink float64

// recordWalk replays the frontier loop's pops and pushes for budget
// visits, on a comboFrontier and its pop log, each successor's λ from
// successorLambda and each pop's (ψ, degree) from popScore as the loop
// has them. The termination bounds only ever end a walk, so up to a
// search that stops at its budget the pops are the search's own.
func recordWalk(e *Engine, pre *Preprocessed, clusters []Cluster, budget int) (*pairScorer, *layerWalk) {
	eff, missing, missed := splitEffective(clusters)
	basePenalty := e.missPenalty(pre, missing, missed)
	ps := newPairScorer(e, pre, eff)
	q := new(comboFrontier) // not pooled: the log is the walk's record
	q.reset(len(eff), ps.words)
	w := &layerWalk{stride: q.stride, width: q.width}
	set := newU64Set()
	start := make([]uint32, len(eff))
	w.pushes = append(w.pushes, frontierEntry{ps.comboLambda(start) + basePenalty, -1, 0})
	q.push(w.pushes[0].lam, -1, 0)
	set.addVec(start)
	next := make([]uint32, len(eff))
	prefix := make([]float64, len(eff))
	for len(w.lambda) < budget && q.len() > 0 {
		lam, parent, bumped := q.pop()
		row := q.record(parent, bumped)
		vec := row[:len(eff)]
		psi, degree := ps.popScore(&q.memo, row, parent, bumped)
		w.lambda = append(w.lambda, lam)
		w.parent = append(w.parent, parent)
		w.bumped = append(w.bumped, bumped)
		w.psi = append(w.psi, psi)
		w.degree = append(w.degree, degree)
		sum := 0.0
		for ci, ii := range vec {
			prefix[ci] = sum
			sum += ps.costs[ci][ii]
		}
		n := len(w.pushes)
		for ci := range eff {
			if int(vec[ci])+1 >= len(eff[ci].Items) {
				continue
			}
			copy(next, vec)
			next[ci]++
			key, bit := visitWord(next)
			w.probes = append(w.probes, visitProbe{key, bit})
			if set.add(key, bit) {
				w.pushes = append(w.pushes, frontierEntry{ps.successorLambda(vec, prefix, ci, lam, basePenalty), int32(len(w.lambda) - 1), int32(ci)})
			}
		}
		for _, en := range w.pushes[n:] {
			q.push(en.lam, en.parent, en.ci)
		}
		w.npush = append(w.npush, len(w.pushes)-n)
	}
	w.pops = q.log
	return ps, w
}

// BenchmarkSearchLayers times layers of the search apart over LUBM 10 k
// (library defaults). Four replay Q11's budget-bound walk, recorded
// once outside the timer: frontier replays the walk's pushes and pops
// through a recycled comboFrontier, each pop recorded into its pop log
// (ns per pop), visited replays the walk's successor probes into a
// recycled visited set (ns per probe, and the table's bytes), score
// scores each pop as the walk does — its parent's χa word carried over
// the bumped cluster's pairs and folded through the memo (ns per pop) —
// and topk ranks the scored pops into a top-10 list (ns per
// combination). Two time the
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
	if !ps.carry {
		b.Fatal("Q11's walk does not carry: score would time the from-scratch fold")
	}
	perOp := func(b *testing.B, n int, unit string) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), unit)
	}
	b.Run("frontier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := getFrontier(w.stride, w.width-w.stride)
			q.push(w.pushes[0].lam, w.pushes[0].parent, w.pushes[0].ci)
			off := 1
			for _, n := range w.npush {
				_, parent, ci := q.pop()
				q.record(parent, ci)
				for _, en := range w.pushes[off : off+n] {
					q.push(en.lam, en.parent, en.ci)
				}
				off += n
			}
			frontierPool.Put(q)
		}
		perOp(b, len(w.lambda), "ns/pop")
	})
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
		// Each pop's row takes its parent's χa word, as record copies it,
		// and popScore carries it over the bumped cluster's pairs and
		// folds it through a memo cleared per walk.
		rows := slices.Clone(w.pops)
		var memo psiMemo
		var sum float64
		for i := 0; i < b.N; i++ {
			clear(memo[:])
			for j, p := range w.parent {
				row := rows[j*w.width : (j+1)*w.width]
				if p >= 0 {
					copy(row[w.stride:], rows[int(p)*w.width+w.stride:(int(p)+1)*w.width])
				}
				psi, _ := ps.popScore(&memo, row, p, w.bumped[j])
				sum += psi
			}
		}
		perOp(b, len(w.lambda), "ns/pop")
		layerSink = sum
	})
	b.Run("topk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rl := resultList{k: 10}
			for j, lam := range w.lambda {
				rl.add(w.vec(j), lam, w.psi[j], w.degree[j])
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
