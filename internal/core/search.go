package core

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sama/internal/align"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
)

// Search combines the clustered paths into the top-k answers (§5,
// Search). Combinations are expanded from the per-cluster rankings in
// non-decreasing Λ order through a priority queue (one path per
// cluster, starting from the all-best combination and relaxing one
// cluster at a time); each visited combination is scored with the full
// score = Λ + Ψ.
//
// Early termination is sound: under the alignment-aware χ, χa ≤ |χ(qi,
// qj)|, so every matched intersection-graph pair contributes ψ ≥ e
// (pairBound tightens that per pair, and caps each pair's degree). Once
// the frontier's Λ plus that Ψ lower bound exceeds the k-th best total,
// or equals it while the k-th entry's degree reaches the degree cap, no
// unseen combination can improve the result set. k ≤ 0 returns every
// combination visited (within the MaxCombinations budget).
func (e *Engine) Search(pre *Preprocessed, clusters []Cluster, k int) []Answer {
	return e.SearchContext(context.Background(), pre, clusters, k)
}

// SearchContext is Search under a context. The frontier loop checks the
// context every 64 visits: on cancellation it stops expanding and
// returns the answers ranked so far. Because combinations are visited
// in non-decreasing Λ order and the result list is kept sorted by full
// score, the truncated result is a valid best-so-far prefix in
// non-decreasing score order.
func (e *Engine) SearchContext(ctx context.Context, pre *Preprocessed, clusters []Cluster, k int) []Answer {
	return e.searchTraced(ctx, pre, clusters, k, nil)
}

// searchTraced is SearchContext recording two trace phases: "search"
// (the Λ-ordered frontier expansion plus the hash-join completion pass
// that runs beside it, both reading the pair scorer's binding columns)
// and "assemble" (materialising the surviving combinations into
// answers). A nil trace records nothing. The
// invariants that make the ranked answers a function of the clusters
// alone are on pairScorer.
func (e *Engine) searchTraced(ctx context.Context, pre *Preprocessed, clusters []Cluster, k int, tr *obs.Trace) []Answer {
	sp := tr.Phase("search")
	eff, missing, missed := splitEffective(clusters)
	basePenalty := e.missPenalty(pre, missing, missed)
	if len(eff) == 0 {
		sp.End()
		return nil // nothing matched at all
	}

	ps := newPairScorer(e, pre, eff)
	psiMinU := e.par.E * float64(len(ps.pairs))
	// done is closed exactly when ctx.Err() turns non-nil; polling it
	// takes no lock, where Err takes a cancelCtx's mutex.
	done := ctx.Done()
	// The join pass reads only the clusters and the scorer's pairs and
	// columns, which the walk below never writes, and writes only its own
	// bound scratch: it runs beside the walk and is received where it
	// used to run.
	joinRes := startJoin(eff, ps, done)

	frontier := getFrontier(len(eff))
	defer frontierPool.Put(frontier)
	visitedSet := getU64Set()
	defer u64SetPool.Put(visitedSet)
	start := frontier.alloc()
	clear(frontier.vec(start)) // the all-best combination
	frontier.push(ps.comboLambda(frontier.vec(start))+basePenalty, start)
	visitedSet.addVec(frontier.vec(start))

	rl := resultList{k: k}
	// terms[ci] is the popped combination's word-key term of cluster ci;
	// fresh[ci] says its ci-successor entered the visited set; prefix[ci]
	// is comboLambda's partial sum before cluster ci.
	last := len(eff) - 1
	terms := make([]uint64, len(eff))
	fresh := make([]bool, len(eff))
	prefix := make([]float64, len(eff))

	visited := 0
	tieVisits := 0
	frontierPeak := frontier.len()
	maxVisits := e.opts.maxCombinations()
	cancelled := false
	boundBreak := false
	for frontier.len() > 0 && visited < maxVisits {
		if visited&63 == 0 {
			select {
			case <-done:
				cancelled = true
			default:
			}
			if cancelled {
				break
			}
		}
		cLambda, h := frontier.pop()
		if w := rl.worst(); w >= 0 {
			if tight := cLambda + ps.psiLB; tight > w || tight == w && rl.results[k-1].degree >= ps.degUB {
				// A proof: this combo — and, pops being in non-decreasing
				// λ, every unseen one, walked or joined — scores > w, or
				// = w with a degree no higher than the k-th's.
				boundBreak = true
				break
			}
			lb := cLambda + psiMinU
			if lb > w {
				// Uniform bound: psiLB folds the per-pair bounds, which can
				// land an ulp below the product E·|pairs|.
				break
			}
			if lb == w {
				// Ties can still win on the conformity-degree
				// tie-break; explore a bounded number of them.
				tieVisits++
				if tieVisits > maxTieVisits {
					break
				}
			}
		}
		visited++

		// A successor's word key is its parent's with one cluster's term
		// swapped (the last cluster's term changes only when its bump
		// crosses a multiple of 64), and its bit is the parent's unless
		// the last cluster moved. All successors are offered to the
		// visited set, in cluster order, before any is pushed, so
		// back-to-back probes overlap their cache misses.
		vec := frontier.vec(h)
		key, sum := uint64(0), 0.0
		for ci, ii := range vec {
			prefix[ci] = sum
			sum += ps.costs[ci][ii]
			if ci == last {
				ii >>= 6
			}
			terms[ci] = ps.keys[ci][ii]
			key += terms[ci]
		}
		bit := vec[last] & 63
		for ci, ii := range vec {
			next, b := ii+1, bit
			if ci == last {
				next, b = (ii+1)>>6, (ii+1)&63
			}
			fresh[ci] = int(ii)+1 < len(eff[ci].Items) &&
				visitedSet.add(key-terms[ci]+ps.keys[ci][next], b)
		}
		// The slab may grow while successors are allocated, so every
		// vector is re-sliced from its handle after alloc.
		for ci := range eff {
			if !fresh[ci] {
				continue
			}
			nh := frontier.alloc()
			next := frontier.vec(nh)
			copy(next, frontier.vec(h))
			next[ci]++
			frontier.push(ps.bumpLambda(next, prefix, ci)+basePenalty, nh)
		}
		if n := frontier.len(); n > frontierPeak {
			frontierPeak = n
		}

		idx := frontier.vec(h)
		psi, degree := ps.score(idx)
		rl.add(idx, cLambda, psi, degree)
		frontier.release(h)
	}
	// A break leaves visited below the budget (it precedes the
	// increment), so this is exactly "combinations were left unvisited
	// because the budget ran out".
	budgetStop := visited >= maxVisits && frontier.len() > 0

	// Join pass: the heap explores combinations in Λ order, which can
	// leave binding-consistent combinations (the ones with solid forest
	// edges) beyond the tie-visit horizon when clusters are large.
	// Construct them directly — a greedy hash-join on the shared query
	// variables — and let them compete in the ranking. Its combinations
	// are deduplicated, scored and ranked here, after the walk, in the
	// order a sequential pass would. Dropped on cancellation, whichever
	// side saw it: a cancelled query wants its prefix now, and the join
	// stops at its next seed. Dropped, and the pass told to quit, on a
	// bound break: the proof covers them.
	joined := 0
	if joinRes != nil {
		if boundBreak {
			ps.jt.quit.Store(true)
		}
		res := <-joinRes
		if res.panicked != nil {
			panic(res.panicked)
		}
		cancelled = cancelled || !res.ok && !boundBreak
		if !cancelled && !boundBreak {
			for _, idx := range res.combos {
				if !visitedSet.addVec(idx) {
					continue
				}
				joined++
				psi, degree := ps.score(idx)
				rl.add(idx, ps.comboLambda(idx)+basePenalty, psi, degree)
			}
		}
	}
	sp.Set("visited", int64(visited))
	sp.Set("joined", int64(joined))
	sp.Set("frontier_peak", int64(frontierPeak))
	if boundBreak {
		sp.Set("bound_break", 1)
	}
	if budgetStop {
		// Visible in the plan only: not Partial, no StopReason — the
		// ranked answers are the engine's defined result at this budget.
		sp.Set("budget_stop", 1)
	}
	if cancelled {
		sp.Set("cancelled", 1)
	}
	sp.End()

	// Materialise only the surviving combinations.
	spA := tr.Phase("assemble")
	answers := make([]Answer, len(rl.results))
	for i, s := range rl.results {
		answers[i] = e.buildAnswer(eff, s.idx, missing, s.lambda, s.psi, s.degree)
	}
	spA.Set("answers", int64(len(answers)))
	spA.End()
	return answers
}

// splitEffective separates the clusters with candidates (the frontier's
// dimensions) from the missed query paths, which contribute a fixed
// deletion penalty to Λ and a fixed non-conformity penalty to Ψ.
func splitEffective(clusters []Cluster) (eff []Cluster, missing []paths.Path, missed map[int]bool) {
	missed = make(map[int]bool)
	for _, cl := range clusters {
		if len(cl.Items) == 0 {
			missing = append(missing, cl.Query)
			missed[cl.QueryIndex] = true
			continue
		}
		eff = append(eff, cl)
	}
	return eff, missing, missed
}

// scored is one ranked combination; idx is the result list's own copy
// of the index vector.
type scored struct {
	idx         []uint32
	lambda      float64
	psi, degree float64
	score       float64
}

// resultList keeps the top-k combinations sorted by (score asc, degree
// desc).
type resultList struct {
	k       int
	results []scored
}

// worst returns the k-th best total so far, or -1 while the list is
// not full (or unbounded).
func (rl *resultList) worst() float64 {
	if rl.k <= 0 || len(rl.results) < rl.k {
		return -1
	}
	return rl.results[rl.k-1].score
}

// add inserts the combination sorted by (score asc, degree desc). idx
// is only read, and copied only when the combination enters the top k
// — into the vector of the entry it displaces once the list is full.
func (rl *resultList) add(idx []uint32, lambda, psi, degree float64) {
	score := lambda + psi
	if rl.k > 0 && len(rl.results) >= rl.k {
		// The cases where the search below finds pos ≥ k, decided
		// against the k-th entry alone.
		if w := &rl.results[rl.k-1]; score > w.score || score == w.score && degree <= w.degree {
			return
		}
	}
	pos := sort.Search(len(rl.results), func(i int) bool {
		if rl.results[i].score != score {
			return rl.results[i].score > score
		}
		return rl.results[i].degree < degree
	})
	var own []uint32
	if rl.k > 0 && len(rl.results) >= rl.k {
		if pos >= rl.k {
			return // past the check above only with a NaN in play
		}
		own = rl.results[rl.k-1].idx[:0]
		rl.results = rl.results[:rl.k-1]
	}
	rl.results = append(rl.results, scored{})
	copy(rl.results[pos+1:], rl.results[pos:])
	rl.results[pos] = scored{
		idx: append(own, idx...), lambda: lambda, psi: psi, degree: degree, score: score,
	}
}

// pairScorer scores combinations for the search frontier without
// touching a map or allocating. Four invariants make the ranked answers
// a function of the clusters alone, equal bit for bit to the paper's
// formulas folded in pair order (TestAnswersMatchPaperFormulas, the
// goldens of TestEquivalenceAcrossEngines):
//
//  1. Pair values are the floats align.PsiAligned returns. χa is
//     evaluated from precompiled binding vectors (dictionary term IDs
//     per shared variable, a containment bitmask per shared constant)
//     that reproduce align.ChiAligned exactly, and ψ/degree are read from
//     per-pair tables filled by align.PsiFromChi /
//     align.PsiDegreeFromChi for χa = 0…χQ — the expressions
//     PsiAligned evaluates, evaluated once. A pair may instead carry a
//     χ function (queryPair.chi) feeding the two primitives directly.
//  2. Sums are folded in canonical order: Ψ and degree over the pairs in
//     pair order starting from zero, each pair added as it is evaluated
//     (score), λ over the clusters in cluster order over a flat cost
//     array. Nothing is adjusted by ±delta from a parent: float
//     addition is not associative, and on non-dyadic pair values (χa =
//     3 gives ψ = E·χQ/3) a running sum drifts ulps away from the
//     canonical fold. The heap orders by λ alone, so (ψ,
//     degree) are folded once per combination, when it is popped or
//     joined — a combination that is only ever pushed costs no pair
//     evaluation.
//  3. The termination bound only skips guaranteed rejects. psiLB = Σ_p
//     bound_p is a sound lower bound on any combination's Ψ and degUB
//     an upper bound on its degree (see pairBound), so a popped combo
//     with λ + psiLB > worst, or = worst while the k-th degree is ≥
//     degUB, is one add rejects; pops are in non-decreasing λ, so every
//     later or joined combo is too and the loop can break. A tie that
//     could still win on degree is never skipped. The tie horizon
//     (maxTieVisits) is counted against the uniform bound E·|pairs|,
//     after the tight check.
//  4. The visit order is deterministic. The (λ, handle) heap orders by
//     λ alone with container/heap's sift algorithm and strict
//     comparisons, successors push in cluster order, and the visited
//     set is exact up to a 64-bit key collision: a combination is one
//     bit of a word keyed by comboKey of its vector with the last index
//     shifted right by 6 (visitWord). Among equal-λ combinations the
//     heap layout decides which are visited before the tie horizon
//     closes, so any change to the sift, the push order or the visited
//     set's answers can move ranked answers and shows up in the goldens.
type pairScorer struct {
	par align.Params
	// pairs are the intersection-graph edges whose endpoints both have
	// an effective cluster, in the deterministic order pre.IG lists them
	// (ascending query-path index, each undirected edge once).
	pairs []queryPair
	// costs[ci][ii] = eff[ci].Items[ii].Cost, flattened so λ re-sums
	// stay on an array of 8-byte strides (an item is 64 B).
	costs [][]float64
	// psiLB = Σ_p bound_p, the precomputed Ψ lower bound; always ≥ the
	// uniform E·|pairs| when E ≥ 0 (each bound_p = E·χQ/χcap ≥ E), up to
	// the ulps of folding it. degUB = Σ_p degTab[χcap], folded beside it,
	// is the highest degree any combination can reach; +Inf when a pair
	// scores through a χ function.
	psiLB, degUB float64
	// keys[ci][ii] = keyTerm(ci, ii), the visited set's word-key terms;
	// the last cluster's column is indexed by ii>>6 (visitWord).
	keys [][]uint64
	// jt files the binding columns by shared variable for the join pass
	// (nil when the query cannot join: fewer than two effective clusters
	// or no pairs).
	jt *joinTables
}

// queryPair is one intersection-graph edge between two effective
// clusters, compiled for scoring.
type queryPair struct {
	ci, cj int
	// chiQ = |χ(qi, qj)|.
	chiQ int
	// varsA[s][ii] is 1 + the dictionary ID of eff[ci].Items[ii]'s
	// binding for the s-th shared variable of χ(qi, qj) in CommonNodes
	// order (0 = unbound); varsB indexes eff[cj] likewise. Dictionary IDs
	// are term identity (kind-sensitive), matching the Term equality
	// ChiAligned applies to bindings; the join pass keys on them too.
	varsA, varsB [][]uint32
	// conA[ii] has bit s set when eff[ci].Items[ii]'s path has the s-th
	// shared constant's node ID; conB likewise. χa's constant contribution
	// is popcount(conA[ii] & conB[jj]). Nil when the pair shares no
	// constant, and when chi is set.
	conA, conB []uint64
	// chi, when non-nil, computes the realised intersection count of two
	// items in place of the binding vectors and masks: the raw label
	// overlap |χ(pi, pj)| under Options.RawChi, align.ChiAligned for a
	// pair sharing more than maxSharedConsts constants. Such a pair
	// takes the uniform floor E as its ψ lower bound. It decodes the
	// items ii of eff[ci] and jj of eff[cj] through the term table.
	chi func(ii, jj uint32) int
	// psiTab[χa] and degTab[χa] are PsiFromChi(χQ, χa) and
	// PsiDegreeFromChi(χQ, χa) for χa = 0…χQ; nil when chi is set (raw
	// χ can exceed χQ).
	psiTab, degTab []float64
}

// maxSharedConsts bounds the constant-containment bitmask width. The
// path extractor's MaxLen keeps indexed paths an order of magnitude
// shorter than 64 nodes, but paths.Decompose does not bound query-path
// length, so a submitted query can exceed it; such a pair is scored
// through queryPair.chi.
const maxSharedConsts = 64

// newPairScorer precompiles the pairwise structure once per search:
// CommonNodes(qi, qj), χQ, and per-item binding vectors / containment
// masks, in the order pre.IG lists the pairs, and the join pass's
// tables over the same binding vectors.
func newPairScorer(e *Engine, pre *Preprocessed, eff []Cluster) *pairScorer {
	byQueryIndex := make(map[int]int, len(eff))
	for i, cl := range eff {
		byQueryIndex[cl.QueryIndex] = i
	}
	ps := &pairScorer{par: e.par}

	// column returns cluster ci's binding column for variable name,
	// compiled on first use from the items' bindings: dictionary IDs are
	// one numbering for every cluster, so cross-column comparison is
	// exact Term equality.
	cols := make([][][]uint32, len(eff)) // cols[ci][slot]
	column := func(ci int, name string) []uint32 {
		cl := &eff[ci]
		if cols[ci] == nil {
			cols[ci] = make([][]uint32, len(cl.vars))
		}
		slot := slices.Index(cl.vars, name)
		if cols[ci][slot] == nil {
			col := make([]uint32, len(cl.Items))
			for ii := range cl.Items {
				for _, b := range cl.bindings(ii) {
					if int(b.slot) == slot {
						col[ii] = b.term + 1
					}
				}
			}
			cols[ci][slot] = col
		}
		return cols[ci][slot]
	}

	// The pairs, their binding columns and constant masks, and their ψ
	// lower bounds.
	chiFns := 0
	for qi, edges := range pre.IG {
		ci, ok := byQueryIndex[qi]
		if !ok {
			continue
		}
		for _, edge := range edges {
			cj, ok := byQueryIndex[edge.To]
			if edge.To < qi || !ok {
				continue
			}
			common := paths.CommonNodes(pre.Paths[qi], pre.Paths[edge.To])
			pr := queryPair{ci: ci, cj: cj, chiQ: len(common)}
			var consts []rdf.Term
			for _, x := range common {
				if x.Kind == rdf.Var {
					pr.varsA = append(pr.varsA, column(ci, x.Value))
					pr.varsB = append(pr.varsB, column(cj, x.Value))
				} else {
					consts = append(consts, x)
				}
			}
			a, b := &eff[ci], &eff[cj]
			switch {
			case e.opts.RawChi:
				pr.chi = func(ii, jj uint32) int {
					return len(paths.CommonNodes(a.Path(int(ii)), b.Path(int(jj))))
				}
			case len(consts) > maxSharedConsts:
				pr.chi = func(ii, jj uint32) int {
					return align.ChiAligned(a.Query, b.Query, a.Alignment(int(ii)).Subst, b.Alignment(int(jj)).Subst,
						a.Path(int(ii)), b.Path(int(jj)))
				}
			}
			if pr.chi != nil {
				chiFns++
			} else {
				pr.psiTab = make([]float64, pr.chiQ+1)
				pr.degTab = make([]float64, pr.chiQ+1)
				for chiA := range pr.psiTab {
					pr.psiTab[chiA] = align.PsiFromChi(pr.chiQ, chiA, e.par)
					pr.degTab[chiA] = align.PsiDegreeFromChi(pr.chiQ, chiA)
				}
				if len(consts) > 0 {
					// The clusters were read in one View: one ID per constant.
					ids := make([]uint32, len(consts))
					for s, x := range consts {
						ids[s] = a.consts[a.Query.Position(x)-1]
					}
					pr.conA, pr.conB = constMasks(a, ids), constMasks(b, ids)
				}
				chiCap := pairBound(&pr, len(a.Items), len(b.Items))
				ps.psiLB += pr.psiTab[chiCap]
				ps.degUB += pr.degTab[chiCap]
			}
			ps.pairs = append(ps.pairs, pr)
		}
	}
	if len(eff) >= 2 && len(ps.pairs) > 0 {
		ps.jt = newJoinTables(eff, column)
	}
	if chiFns > 0 {
		// The uniform floor E per χ-function pair, added as one product:
		// when every pair has one (RawChi), psiLB is E·|pairs| bit for
		// bit — the uniform bound, which is the only one raw χ admits
		// (it can exceed χQ, so no per-pair cap holds).
		ps.psiLB += e.par.E * float64(chiFns)
		ps.degUB = math.Inf(1)
	}

	ps.costs = make([][]float64, len(eff))
	ps.keys = make([][]uint64, len(eff))
	for ci := range eff {
		col := make([]float64, len(eff[ci].Items))
		for ii := range eff[ci].Items {
			col[ii] = eff[ci].Items[ii].Cost
		}
		ps.costs[ci] = col
		n := len(col)
		if ci == len(eff)-1 {
			n = (n + 63) / 64
		}
		ps.keys[ci] = make([]uint64, n)
		for x := range ps.keys[ci] {
			ps.keys[ci][x] = keyTerm(ci, uint32(x))
		}
	}
	return ps
}

// constMasks builds the containment bitmask column for one cluster
// side: bit s of the ii-th mask ⇔ item ii's path has a node whose ID is
// ids[s]−1 (0, a constant the dictionary lacks, is on no path).
func constMasks(cl *Cluster, ids []uint32) []uint64 {
	masks := make([]uint64, len(cl.Items))
	for ii := range cl.Items {
		nodes := cl.run(ii)[:(cl.Items[ii].run.n+1)/2]
		for s, id := range ids {
			if id != 0 && slices.Contains(nodes, id-1) {
				masks[ii] |= 1 << uint(s)
			}
		}
	}
	return masks
}

// pairBound computes the pair's χ ceiling: χa(ii, jj) ≤
// min(cap_i(ii), cap_j(jj)) ≤ χcap := min(max_ii cap_i, max_jj cap_j),
// where an item's cap counts the pair's shared variables it binds plus
// the shared constants its path contains. ψ is non-increasing in χa
// (ψ(0) = E·χQ ≥ E·χQ/χa for any χa ≥ 1) and the degree χa/χQ
// non-decreasing, so ψ ≥ psiTab[χcap] and degree ≤ degTab[χcap] for
// every item pair — the per-pair bounds folded into psiLB and degUB.
func pairBound(pr *queryPair, nA, nB int) int {
	maxCap := func(vars [][]uint32, con []uint64, n int) int {
		best := 0
		for ii := 0; ii < n; ii++ {
			c := 0
			for s := range vars {
				if vars[s][ii] != 0 {
					c++
				}
			}
			if con != nil {
				c += bits.OnesCount64(con[ii])
			}
			if c > best {
				best = c
			}
		}
		return best
	}
	capA := maxCap(pr.varsA, pr.conA, nA)
	capB := maxCap(pr.varsB, pr.conB, nB)
	return min(capA, capB)
}

// score folds the combination's ψ and degree from zero in pair order —
// the canonical fold of invariant 2 — evaluating each pair as it goes:
// an allocation-free array comparison reproducing ChiAligned and two
// table reads, unless the pair carries its own χ function (whose values
// are rounded by conversion before they are added, as a stored pair
// value was).
func (ps *pairScorer) score(idx []uint32) (psi, degree float64) {
	for pi := range ps.pairs {
		pr := &ps.pairs[pi]
		ii, jj := idx[pr.ci], idx[pr.cj]
		if pr.chi != nil {
			chiA := pr.chi(ii, jj)
			psi += float64(align.PsiFromChi(pr.chiQ, chiA, ps.par))
			degree += float64(align.PsiDegreeFromChi(pr.chiQ, chiA))
			continue
		}
		chiA := 0
		for s := range pr.varsA {
			if a := pr.varsA[s][ii]; a != 0 && a == pr.varsB[s][jj] {
				chiA++
			}
		}
		if pr.conA != nil {
			chiA += bits.OnesCount64(pr.conA[ii] & pr.conB[jj])
		}
		psi += pr.psiTab[chiA]
		degree += pr.degTab[chiA]
	}
	return psi, degree
}

// comboLambda folds the selected items' costs in cluster order over the
// flat cost columns.
func (ps *pairScorer) comboLambda(idx []uint32) float64 {
	var sum float64
	for ci, ii := range idx {
		sum += ps.costs[ci][ii]
	}
	return sum
}

// bumpLambda is comboLambda(v) for a successor v whose cluster ci was
// bumped, folded on from prefix[ci] — the parent's partial sum before
// cluster ci — so its additions, and its bits, are comboLambda's.
func (ps *pairScorer) bumpLambda(v []uint32, prefix []float64, ci int) float64 {
	sum := prefix[ci]
	for j := ci; j < len(v); j++ {
		sum += ps.costs[j][v[j]]
	}
	return sum
}

// comboFrontier is the Λ-ordered priority queue of the search, held in
// flat pointer-free slices: handle h's index vector is
// idx[h*stride:(h+1)*stride], and the heap holds (λ, handle) entries
// ordered with container/heap's exact sift algorithm (strict less on
// λ), so a comparison reads the two entries it compares and nothing
// else, the collector has nothing to scan, and a recycled frontier
// (frontierPool) makes a steady-state search allocation-free up to the
// slices' high-water mark.
type comboFrontier struct {
	stride int
	idx    []uint32
	free   []int32
	heap   []frontierEntry
}

type frontierEntry struct {
	lam float64
	h   int32
}

// frontierPool recycles frontiers across searches, as u64SetPool does
// the visited set: a recycled frontier keeps its slabs' capacity.
var frontierPool = sync.Pool{New: func() any { return new(comboFrontier) }}

// getFrontier returns an empty frontier over stride-long index vectors.
func getFrontier(stride int) *comboFrontier {
	q := frontierPool.Get().(*comboFrontier)
	q.stride = stride
	q.idx, q.free, q.heap = q.idx[:0], q.free[:0], q.heap[:0]
	return q
}

func (q *comboFrontier) len() int { return len(q.heap) }

// vec is handle h's index vector. It aliases the slab: alloc may move
// the slab, so a vector is re-sliced from its handle after every alloc.
func (q *comboFrontier) vec(h int32) []uint32 {
	o := int(h) * q.stride
	return q.idx[o : o+q.stride : o+q.stride]
}

// alloc returns a handle — a released one, or a fresh one at the end
// of the slab. Either way its vector holds stale values (the slab is
// recycled) until the caller overwrites it.
func (q *comboFrontier) alloc() int32 {
	if n := len(q.free); n > 0 {
		h := q.free[n-1]
		q.free = q.free[:n-1]
		return h
	}
	h := int32(len(q.idx) / q.stride)
	q.idx = slices.Grow(q.idx, q.stride)[:len(q.idx)+q.stride]
	return h
}

// release returns a popped handle to the free list.
func (q *comboFrontier) release(h int32) { q.free = append(q.free, h) }

func (q *comboFrontier) less(i, j int) bool { return q.heap[i].lam < q.heap[j].lam }

func (q *comboFrontier) swap(i, j int) { q.heap[i], q.heap[j] = q.heap[j], q.heap[i] }

// push and pop are container/heap.Push / container/heap.Pop on the
// entry slice, comparison for comparison: the heap layout, and with it
// the pop order among equal-λ entries, is part of invariant 4.
func (q *comboFrontier) push(lam float64, h int32) {
	q.heap = append(q.heap, frontierEntry{lam: lam, h: h})
	q.up(len(q.heap) - 1)
}

func (q *comboFrontier) pop() (lam float64, h int32) {
	n := len(q.heap) - 1
	q.swap(0, n)
	q.down(0, n)
	top := q.heap[n]
	q.heap = q.heap[:n]
	return top.lam, top.h
}

func (q *comboFrontier) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

func (q *comboFrontier) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
}

// u64Set is the search's visited set: an open-addressing table of
// 64-bit words, each holding 64 combinations that differ only in the
// last cluster's low 6 index bits (visitWord), probed by the already
// mixed word key without further hashing and grown at three-quarters
// load. A slot with no bit set is empty, so word key 0 needs no special
// case.
type u64Set struct {
	slots []visitSlot
	mask  uint64
	n     int
}

type visitSlot struct{ key, bits uint64 }

func newU64Set() *u64Set {
	return &u64Set{slots: make([]visitSlot, 1024), mask: 1023}
}

// u64SetPool recycles visited sets across searches: a recycled set
// keeps its grown capacity, so steady-state queries never pay the
// rehash cascade from the initial size (clearing is a sequential
// memclr, far cheaper than rehashing the same entries).
var u64SetPool = sync.Pool{New: func() any { return newU64Set() }}

func getU64Set() *u64Set {
	s := u64SetPool.Get().(*u64Set)
	clear(s.slots)
	s.n = 0
	return s
}

// visitWord is v's place in the visited set: the word key comboKey of v
// with its last index shifted right by 6, and that index's low 6 bits.
func visitWord(v []uint32) (key uint64, bit uint32) {
	last := len(v) - 1
	return comboKey(v[:last]) + keyTerm(last, v[last]>>6), v[last] & 63
}

// addVec adds the combination v and reports whether it was absent.
func (s *u64Set) addVec(v []uint32) bool { return s.add(visitWord(v)) }

// add sets bit b of word k and reports whether it was clear.
func (s *u64Set) add(k uint64, b uint32) bool {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	m := uint64(1) << (b & 63)
	i := k & s.mask
	for {
		sl := &s.slots[i]
		if sl.bits == 0 {
			sl.key, sl.bits = k, m
			s.n++
			return true
		}
		if sl.key == k {
			fresh := sl.bits&m == 0
			sl.bits |= m
			return fresh
		}
		i = (i + 1) & s.mask
	}
}

func (s *u64Set) grow() {
	old := s.slots
	s.slots = make([]visitSlot, 2*len(old))
	s.mask = uint64(len(s.slots) - 1)
	for _, v := range old {
		if v.bits == 0 {
			continue
		}
		i := v.key & s.mask
		for s.slots[i].bits != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = v
	}
}

// Join-pass budgets: seeds per intersection-graph pair, seeds per query,
// and items inspected per cluster while greedily extending a seed.
const (
	maxSeedsPerPair = 48
	maxTotalSeeds   = 192
	maxChecksPerCol = 512
)

// joinTables is the join pass's view of the clusters: the scorer's
// binding columns, filed by shared variable, and the bindings a seed
// has accumulated. A variable is shared when two or more effective
// query paths have it. An item's substitution binds only its own query
// path's variables, so no other binding can ever meet one from another
// cluster: the tables leave them out.
type joinTables struct {
	// cols[ci][v] is cluster ci's binding column for shared variable v
	// (1 + the item's term ID, 0 = unbound), nil when ci's query path
	// lacks v.
	cols [][][]uint32
	// bound[v] is 1 + the term ID of the seed's first binding of shared
	// variable v, 0 while it has none; cleared per seed.
	bound []uint32
	// quit is set by the search on a bound break: the pass stops before
	// its next pair's build or probed item.
	quit atomic.Bool
}

// newJoinTables numbers the shared variables and takes each cluster's
// column for each through column. A shared node variable puts an
// intersection-graph edge between each two of its clusters, so the
// scorer compiled its columns already; only a shared edge variable's
// are compiled here.
func newJoinTables(eff []Cluster, column func(ci int, name string) []uint32) *joinTables {
	var names []string
	for ci := range eff {
		for _, name := range eff[ci].vars {
			if !slices.Contains(names, name) && slices.ContainsFunc(eff[ci+1:], func(c Cluster) bool {
				return slices.Contains(c.vars, name)
			}) {
				names = append(names, name)
			}
		}
	}
	jt := &joinTables{cols: make([][][]uint32, len(eff)), bound: make([]uint32, len(names))}
	for ci := range eff {
		jt.cols[ci] = make([][]uint32, len(names))
		for v, name := range names {
			if slices.Contains(eff[ci].vars, name) {
				jt.cols[ci][v] = column(ci, name)
			}
		}
	}
	return jt
}

// firstCompatible returns the first of cluster ci's first
// min(n, maxChecksPerCol) items whose bindings agree with the
// accumulated ones under full Term identity, or -1.
func (jt *joinTables) firstCompatible(ci, n int) int {
next:
	for ii := range min(n, maxChecksPerCol) {
		for v, col := range jt.cols[ci] {
			if col != nil && col[ii] != 0 && jt.bound[v] != 0 && col[ii] != jt.bound[v] {
				continue next
			}
		}
		return ii
	}
	return -1
}

// merge folds the shared-variable bindings of item ii of cluster ci
// into the accumulated ones; first binding wins.
func (jt *joinTables) merge(ci, ii int) {
	for v, col := range jt.cols[ci] {
		if col != nil && jt.bound[v] == 0 {
			jt.bound[v] = col[ii]
		}
	}
}

// extend completes a partial combo over the remaining clusters,
// greedily taking the best-cost compatible item per cluster within the
// maxChecksPerCol budget.
func (jt *joinTables) extend(eff []Cluster, idx []uint32, have []bool) bool {
	for ci := range eff {
		if have[ci] {
			continue
		}
		found := jt.firstCompatible(ci, len(eff[ci].Items))
		if found < 0 {
			return false
		}
		idx[ci] = uint32(found)
		jt.merge(ci, found)
	}
	return true
}

// joinKey gathers item ii's key from a pair side's binding columns
// into kv; false when the item leaves a shared variable unbound.
func joinKey(vars [][]uint32, ii int, kv []uint32) bool {
	for s := range vars {
		if kv[s] = vars[s][ii]; kv[s] == 0 {
			return false
		}
	}
	return true
}

// joinResult is what the join pass hands back to the search.
type joinResult struct {
	combos [][]uint32
	// ok is false when done closed before the pass finished.
	ok bool
	// panicked is a recovered panic of the pass, re-raised on the
	// search's goroutine so it unwinds the query as it would have there.
	panicked any
}

// startJoin runs joinCombos in a goroutine and returns the channel that
// receives its one result, or nil — and starts nothing — when the query
// cannot join (ps has no join tables).
func startJoin(eff []Cluster, ps *pairScorer, done <-chan struct{}) <-chan joinResult {
	if ps.jt == nil {
		return nil
	}
	ch := make(chan joinResult, 1)
	go func() {
		var res joinResult
		defer func() {
			res.panicked = recover()
			ch <- res
		}()
		res.combos, res.ok = joinCombos(eff, ps, done)
	}()
	return ch
}

// joinCombos builds combinations whose per-path substitutions agree on
// the shared query variables: a hash-join over each intersection-graph
// pair (probe one cluster's shared-variable bindings into the other's),
// with each match greedily extended to the remaining clusters. Its keys
// are the scorer's binding columns read across a pair's shared
// variables — term identity, as χa compares them — bucketed by
// comboKey with exact vector verification on both build and probe (key
// collisions cannot merge distinct keys); the greedy extension
// (firstCompatible) compares the same IDs, into one scratch vector
// copied out only when it succeeds. It polls done and jt.quit before
// each pair's build and once per probed item, and returns ok = false as
// soon as either is set. ps.jt must be non-nil.
func joinCombos(eff []Cluster, ps *pairScorer, done <-chan struct{}) (out [][]uint32, ok bool) {
	jt := ps.jt
	have := make([]bool, len(eff))
	idx := make([]uint32, len(eff))
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
		}
		return jt.quit.Load()
	}

	var kvArena []uint32
	var next []int32
	for pi := range ps.pairs {
		if len(out) >= maxTotalSeeds {
			break
		}
		pr := &ps.pairs[pi]
		nv := len(pr.varsA)
		if nv == 0 {
			continue
		}
		if stopped() {
			return nil, false
		}
		// Build side: the smaller cluster of the pair; first item per
		// key wins (items are cost-sorted).
		build, probe := pr.ci, pr.cj
		buildVars, probeVars := pr.varsA, pr.varsB
		if len(eff[probe].Items) < len(eff[build].Items) {
			build, probe = probe, build
			buildVars, probeVars = probeVars, buildVars
		}
		// head[comboKey] is 1 + the build item heading the chain of
		// distinct keys with that comboKey; next links the chain.
		nb := len(eff[build].Items)
		head := make(map[uint64]int32, nb)
		if len(kvArena) < nv*nb {
			kvArena = make([]uint32, nv*nb)
		}
		if len(next) < nb {
			next = make([]int32, nb)
		}
		find := func(kv []uint32) int {
			for e := head[comboKey(kv)]; e != 0; e = next[e-1] {
				if slices.Equal(kvArena[int(e-1)*nv:int(e)*nv], kv) {
					return int(e - 1)
				}
			}
			return -1
		}
		for ii := 0; ii < nb; ii++ {
			kv := kvArena[ii*nv : (ii+1)*nv]
			if joinKey(buildVars, ii, kv) && find(kv) < 0 {
				h := comboKey(kv)
				next[ii], head[h] = head[h], int32(ii+1)
			}
		}
		seeds := 0
		kv := make([]uint32, nv)
		for ii := range eff[probe].Items {
			if seeds >= maxSeedsPerPair || len(out) >= maxTotalSeeds {
				break
			}
			if stopped() {
				return nil, false
			}
			if !joinKey(probeVars, ii, kv) {
				continue
			}
			jj := find(kv)
			if jj < 0 {
				continue
			}
			idx[probe], idx[build] = uint32(ii), uint32(jj)
			clear(jt.bound)
			jt.merge(probe, ii)
			jt.merge(build, jj)
			for ci := range have {
				have[ci] = ci == probe || ci == build
			}
			if jt.extend(eff, idx, have) {
				out = append(out, slices.Clone(idx))
				seeds++
			}
		}
	}
	return out, true
}

// missPenalty prices the query paths with empty clusters: each costs its
// full deletion (A per node, C per edge) plus the worst-case ψ for every
// intersection-graph edge touching it.
func (e *Engine) missPenalty(pre *Preprocessed, missing []paths.Path, missed map[int]bool) float64 {
	var pen float64
	for _, q := range missing {
		pen += e.par.A*float64(len(q.Nodes)) + e.par.C*float64(len(q.Edges))
	}
	for qi, edges := range pre.IG {
		for _, edge := range edges {
			if edge.To < qi {
				continue // count each undirected edge once
			}
			if missed[qi] || missed[edge.To] {
				pen += e.par.E * float64(edge.Chi)
			}
		}
	}
	return pen
}

// buildAnswer materialises one scored combination: its data paths and
// alignments decoded through the clusters' term table, which is the one
// of the View they were read in — the live dictionary may have been
// renumbered since.
func (e *Engine) buildAnswer(eff []Cluster, idx []uint32, missing []paths.Path, lambda, psi, degree float64) Answer {
	pairs := make([]align.PairedPath, len(eff))
	for ci, ii := range idx {
		cl := &eff[ci]
		pairs[ci] = align.PairedPath{Query: cl.Query, Data: cl.Path(int(ii)), Alignment: cl.Alignment(int(ii))}
	}
	ans := Answer{
		Pairs:   pairs,
		Missing: missing,
		Lambda:  lambda,
		Psi:     psi,
		Degree:  degree,
	}
	ans.Score = ans.Lambda + ans.Psi
	ans.mergeSubstitutions()
	return ans
}

// comboKey is the 64-bit identity of a uint32 vector: the wrapping sum
// of keyTerm(i, v[i]) over its positions. The visited set keys its
// words by it (visitWord); the join pass buckets label-key vectors by
// it. Being a sum, a successor's key is its parent's minus the bumped
// cluster's old term plus its new one — O(1) per successor instead of a
// pass over the vector.
func comboKey(v []uint32) uint64 {
	var k uint64
	for i, x := range v {
		k += keyTerm(i, x)
	}
	return k
}

// keyTerm mixes (position, value) with the splitmix64 finalizer — a
// bijection on the packed word, so distinct pairs give distinct terms.
func keyTerm(i int, x uint32) uint64 {
	z := uint64(i)<<32 | uint64(x)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
