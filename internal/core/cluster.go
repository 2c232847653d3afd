package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"sama/internal/align"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
)

// ClusterItem is one candidate data path inside a cluster with its
// alignment against the cluster's query path, in dictionary term IDs and
// pointer-free (Cluster.Path and Cluster.Alignment decode it). Items are
// ordered by non-decreasing cost (the paper orders “according to their
// score with the greater coming first” — scores there are displayed as
// penalties; the ranking intent, best alignment first, is the same).
type ClusterItem struct {
	ID   index.PathID
	Cost float64 // λ(p, q)
	// ops are the alignment's counters, in align.Alignment's field order;
	// run addresses the path's term IDs (nodes, then edges) in
	// Cluster.runs, subst its bindings in Cluster.binds.
	ops        [8]int32
	run, subst span
}

// span is the run [at, at+n) of one of a cluster's flat arrays.
type span struct{ at, n uint32 }

// at returns the span s of a.
func at[T any](a []T, s span) []T { return a[s.at : s.at+s.n] }

// binding is one variable binding of an item's substitution: the
// variable's position in its cluster's vars and its term's dictionary ID.
type binding struct{ slot, term uint32 }

// Cluster groups the candidate data paths for one query path (§5,
// Clustering).
type Cluster struct {
	// QueryIndex is the position of the query path in Preprocessed.Paths.
	QueryIndex int
	// Query is the query path this cluster serves.
	Query paths.Path
	// Items are the ranked candidates, best (lowest λ) first. Read-only:
	// the slice and the arrays runs and binds are shared with the
	// alignment memo and with every other query it serves.
	Items []ClusterItem
	// Retrieved is the number of candidate paths the index returned for
	// this cluster before capping — the per-cluster contribution to the
	// I of Figure 7(a).
	Retrieved int
	// runs and binds hold the items' paths and substitutions, a binding's
	// slot indexing vars = Query.Vars(). terms, the table of the View the
	// cluster was read in, decodes every ID; consts[i] is 1 + the ID of
	// Query.Nodes[i], 0 for a variable or a term the dictionary lacks.
	runs   []uint32
	binds  []binding
	vars   []string
	terms  index.Terms
	consts []uint32
	// reads is the page work of the batched read this cluster was built
	// from; a memo hit read nothing.
	reads storage.Reads
}

// run and bindings return item ii's term IDs and its bindings by slot.
func (c *Cluster) run(ii int) []uint32       { return at(c.runs, c.Items[ii].run) }
func (c *Cluster) bindings(ii int) []binding { return at(c.binds, c.Items[ii].subst) }

// Path decodes item ii's data path through the cluster's term table.
func (c *Cluster) Path(ii int) paths.Path { return c.terms.Path(c.run(ii)) }

// Alignment rebuilds item ii's alignment against Query: its cost, its
// counters and its substitution.
func (c *Cluster) Alignment(ii int) *align.Alignment {
	it, o := &c.Items[ii], c.Items[ii].ops
	al := &align.Alignment{Cost: it.Cost,
		NodeMismatches: int(o[0]), NodeInsertions: int(o[1]), EdgeMismatches: int(o[2]), EdgeInsertions: int(o[3]),
		NodeDeletions: int(o[4]), EdgeDeletions: int(o[5]), ContextNodes: int(o[6]), ContextEdges: int(o[7]),
		Subst: make(rdf.Substitution, it.subst.n)}
	for _, b := range c.bindings(ii) {
		al.Subst[c.vars[b.slot]] = c.terms[b.term]
	}
	return al
}

// Cluster retrieves and ranks the candidate data paths for every query
// path. Retrieval follows §5: candidates share the query path's sink;
// when the sink is a variable, the first constant value occurring in q
// scanning from the end is used instead, matching any path containing
// that label. Query paths with no constants fall back to a bounded scan.
// Clusters are built concurrently, one goroutine per query path — the
// index is read-only at query time, which is the parallelism §6.1 calls
// out (“supporting parallel implementations”).
func (e *Engine) Cluster(pre *Preprocessed) ([]Cluster, error) {
	return e.ClusterContext(context.Background(), pre)
}

// ClusterContext is Cluster under a context: each cluster's alignment
// loop checks the context per candidate and stops early on
// cancellation, keeping the candidates aligned so far (a smaller but
// still best-first cluster). A panic in a cluster goroutine is
// recovered into an error instead of crashing the process. All clusters
// are read inside one index View.
func (e *Engine) ClusterContext(ctx context.Context, pre *Preprocessed) (clusters []Cluster, err error) {
	err = e.view(func(r backend) error {
		clusters, err = e.clusterTraced(ctx, r, pre, nil)
		return err
	})
	return clusters, err
}

// clusterTraced builds every cluster through r, recording one child
// span per query path under parent (the "cluster" phase span). The
// spans are created up front, in query-path order, so the trace is
// deterministic even though the alignment passes run concurrently; a
// nil parent records nothing.
func (e *Engine) clusterTraced(ctx context.Context, r backend, pre *Preprocessed, parent *obs.Span) ([]Cluster, error) {
	clusters := make([]Cluster, len(pre.Paths))
	errs := make([]error, len(pre.Paths))
	spans := make([]*obs.Span, len(pre.Paths))
	for qi := range pre.Paths {
		spans[qi] = parent.Child(fmt.Sprintf("align[%d]", qi))
	}
	var wg sync.WaitGroup
	for qi := range pre.Paths {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			defer spans[qi].End()
			defer func() {
				if r := recover(); r != nil {
					errs[qi] = fmt.Errorf("core: clustering query path %d panicked: %v", qi, r)
				}
			}()
			clusters[qi], errs[qi] = e.buildCluster(ctx, r, qi, pre.Paths[qi], spans[qi])
			spans[qi].Set("retrieved", int64(clusters[qi].Retrieved))
			spans[qi].Set("kept", int64(len(clusters[qi].Items)))
		}(qi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return clusters, nil
}

// clusterScratch is the memory one buildCluster works in: everything
// sized by the *retrieved* candidates (posting runs and their union,
// live IDs, summaries, buckets, fingerprint survivors) or by the
// pre-rank frontier (candidates, staged items). A build that misses the
// memo takes one from clusterScratchPool and releases it on return; the
// Cluster it returns owns a copy of the items it keeps, so nothing reads
// the scratch afterwards and concurrent builds never share one.
type clusterScratch struct {
	idx     index.Scratch  // retrieval and summaries
	buckets []uint32       // pre-rank: each candidate's bucket
	counts  []int          // pre-rank: bucket sizes, then fill offsets
	surv    []index.PathID // pre-rank: one deficit bucket's fingerprint survivors
	cands   []index.PathID
	// staged are the aligned candidates, each one's run.at its position m
	// in the batched read until keep: runs[m] is its path's term IDs,
	// als[m] its alignment (its class representative's).
	staged []ClusterItem
	runs   [][]uint32
	als    []*align.Alignment
	// selectClusterItems' distinct costs, ascending, their groups' next
	// slots, and the kept items.
	costs []float64
	offs  []int
	kept  []ClusterItem
	// alignAll's class table: the query path's constants' term IDs, the
	// key being built, the classes by key, node terms' Related by ID.
	consts  []uint32
	key     []byte
	classes map[string]class
	related map[uint32]uint64
}

// class is a cut's class: its first member's alignment, and whether
// it broke a window tie (its members then split by tie key).
type class struct {
	al   *align.Alignment
	tied bool
}

var clusterScratchPool = sync.Pool{New: func() any {
	return &clusterScratch{classes: map[string]class{}, related: map[uint32]uint64{}}
}}

// release returns the scratch to the pool, its references to the
// batched read's runs and the alignments, and its class table, dropped
// first.
func (sc *clusterScratch) release() {
	clear(sc.als)
	clear(sc.classes)
	clear(sc.related)
	sc.runs = nil
	clusterScratchPool.Put(sc)
}

// buildCluster retrieves, aligns and ranks the candidates for one query
// path through r. The result is a pure function of the query path and
// the index state r reads, so with the alignment memo enabled it is
// computed once per (query-path shape, epoch): a hit returns the stored
// cluster and touches no posting, no summary and no page. An entry
// stored at an older epoch is re-confirmed rather than rebuilt when the
// writes since leave the cut retrieval and the pre-rank would pick as
// the entry's (reconfirm): its items are served and stored again at r's
// epoch with the new retrieval count (the plan reads as a hit's). That
// is exact: the items are a function of the cut's records alone —
// alignment, the full-length filter and the (cost, ID) selection read
// nothing else — and within one layout no ID's record changes.
// Otherwise retrieval and the pre-rank pick the cut, which is
// materialised in one page-locality batched read and aligned in one
// loop (alignAll), whose page work the cluster keeps. sp, when non-nil,
// receives the pass's decision counters for the explain plan
// (cachedCluster.describe) and, when it aligned, the pages the batched
// read touched.
func (e *Engine) buildCluster(ctx context.Context, r backend, qi int, q paths.Path, sp *obs.Span) (Cluster, error) {
	key := q.Key()
	v, ok := e.alignMemo.Renew(key, r.Epoch(), func(stale any) (any, int, bool) {
		return e.reconfirm(r, q, stale.(*cachedCluster))
	})
	if ok {
		cc := v.(*cachedCluster)
		cc.describe(sp, cc.preranked, 0)
		return cc.cluster(r, qi, q), nil
	}
	sc := clusterScratchPool.Get().(*clusterScratch)
	defer sc.release()
	ids, step := retrieve(r, sc, q)
	if len(ids) == 0 {
		return Cluster{QueryIndex: qi, Query: q}, nil
	}
	cut, boundary, err := e.preRank(r, sc, ids, q)
	if err != nil {
		return Cluster{}, fmt.Errorf("core: cluster for query path %d: %w", qi, err)
	}
	// Ascending, for reconfirm's binary search and for
	// selectClusterItems, which needs the items in ID order.
	slices.Sort(cut)
	cc := &cachedCluster{retrieved: len(ids), preranked: len(cut), layout: r.Layout(),
		mark: r.Watermark(), step: step, boundary: boundary}
	staged, reads, aligned, err := e.alignAll(ctx, r, sc, q, cut)
	if err != nil {
		return Cluster{}, fmt.Errorf("core: cluster for query path %d: %w", qi, err)
	}

	// Figure 3 clusters only paths at least as long as the query path
	// (insertions into q are allowed, deletions are not): cl1 holds the
	// six 4-node paths only, while cl2 also keeps them next to its
	// 3-node exact matches. Shorter paths are kept as a fallback so a
	// cluster never comes back empty when the data offers only truncated
	// matches. The full-length items are moved to the front in place.
	full := 0
	for i, item := range staged {
		if int(item.run.n+1)/2 >= q.Length() {
			staged[full], staged[i] = item, staged[full]
			full++
		}
	}
	items := staged[:full]
	if full == 0 {
		items = staged
		cc.shorterFallback = len(staged)
	}
	capN := e.opts.maxCandidates()
	cc.capDropped = max(len(items)-capN, 0)
	cc.keep(selectClusterItems(sc, items, capN), sc, q)
	cc.describe(sp, 0, aligned)
	sp.Set("batched_pages", int64(reads.Pages))
	// Only a complete build is stored: a cancelled one aligned a prefix.
	if ctx.Err() == nil {
		cc.cut = slices.Clone(cut)
		cc.size = memoSize(cc)
		e.alignMemo.Put(key, r.Epoch(), cc, cc.size)
	}
	c := cc.cluster(r, qi, q)
	c.reads = reads
	return c, nil
}

// reconfirm is the alignment memo's renew step for a stale entry (see
// buildCluster). It reads only what the writes since the entry's
// watermark changed — the paths committed since, whose IDs are above
// every ID the entry names, and the tombstones logged since — and
// decides as retrieval and the pre-rank run again would: the entry is
// served, with the new retrieval count and watermark, exactly when they
// would pick its cut (DESIGN §8, "Why re-confirmation is exact"). It
// refuses an entry of another layout or of the fallback scan, and one
// with more tombstones to read than it has candidates, for which a
// re-pick costs no more.
func (e *Engine) reconfirm(r backend, q paths.Path, stale *cachedCluster) (any, int, bool) {
	steps := cascade(q)
	now := r.Watermark()
	if stale.layout != r.Layout() || stale.step == len(steps) || now.Tombs-stale.mark.Tombs > stale.retrieved {
		return nil, 0, false
	}
	from := index.PathID(stale.mark.Paths)
	var fresh []index.PathID
	// Retrieval would now stop at an earlier step that gained a live path.
	for _, st := range steps[:stale.step] {
		fresh = r.PostingsFrom(fresh[:0], st.field, st.label, from)
		if slices.ContainsFunc(fresh, r.Live) {
			return nil, 0, false
		}
	}
	// The step's candidates gained the live paths committed since and
	// lost the older ones tombstoned since.
	st := steps[stale.step]
	fresh = slices.DeleteFunc(r.PostingsFrom(fresh[:0], st.field, st.label, from),
		func(id index.PathID) bool { return !r.Live(id) })
	dead := r.TombstonedSince(stale.mark, st.field, st.label)
	n, _ := slices.BinarySearch(dead, from)
	dead = dead[:n]
	retrieved := stale.retrieved + len(fresh) - len(dead)
	inCut := func(id index.PathID) bool { _, ok := slices.BinarySearch(stale.cut, id); return ok }
	if min(retrieved, 2*e.opts.maxCandidates()) != len(stale.cut) || slices.ContainsFunc(dead, inCut) ||
		!e.rankAfter(r, q, fresh, stale.boundary) {
		return nil, 0, false
	}
	renewed := *stale
	renewed.retrieved, renewed.mark = retrieved, now
	return &renewed, renewed.size, true
}

// rankAfter reports whether every one of ids — live paths committed
// since a cut was picked, ascending — ranks after the cut's last
// candidate, whose pre-rank bucket is boundary: the ID breaks bucket
// ties and theirs are above every ID of the cut, so a bucket no lower
// than the boundary does. A bucket comes from the summary, a missing = 0
// one confirmed by the constants' intersection, as preRank does it.
func (e *Engine) rankAfter(r backend, q paths.Path, ids []index.PathID, boundary int) bool {
	if len(ids) == 0 || boundary == 0 {
		return true
	}
	sums, err := r.SummariesInto(new(index.Scratch), ids)
	if err != nil {
		return false
	}
	labels, masks := queryConstants(r, q)
	qlen := q.Length()
	maxDeficit := min(qlen, 0xffff)
	var unsure []index.PathID
	for i, id := range ids {
		b := bucket(sums[i], masks, qlen, maxDeficit)
		switch {
		case b >= boundary:
		case b > maxDeficit || len(labels) == 0 || b+maxDeficit+1 < boundary:
			return false // below the boundary, confirmed or demoted
		default:
			unsure = append(unsure, id) // below it only if confirmed
		}
	}
	return len(unsure) == 0 || len(r.PathsByAllLabelsAmong(nil, unsure, labels, 1)) == 0
}

// queryConstants collects the query path's constant labels, nodes then
// edges, each with the signature probe mask a lookup for it would
// consult (exact key, tokens, and thesaurus expansions — the same
// precision levels retrieval admits candidates under).
func queryConstants(r backend, q paths.Path) (labels []string, masks []uint64) {
	for _, terms := range [2][]rdf.Term{q.Nodes, q.Edges} {
		for _, t := range terms {
			if t.IsConstant() {
				labels = append(labels, t.Label())
				masks = append(masks, r.LabelProbeMask(t.Label()))
			}
		}
	}
	return labels, masks
}

// preRank bounds the candidates that get materialised and aligned. When
// the index returns far more paths than the cluster will keep, only the
// most promising are worth a disk read. It returns them with the bucket
// of the last (see below): a candidate that ranks below it changes the
// cut (rankAfter). A candidate set of exactly the budget is ranked too,
// so that its boundary is known. ids must be ascending, as every
// posting lookup returns them (the fallback scan's are not and need not
// be: it runs only when a constant matches no live path, and then the
// second step below confirms nothing).
//
// Promise is estimated in two steps. First from the in-memory summaries
// only — one batched read of (length, signature) pairs under a single
// lock, zero postings probes, zero disk reads. A candidate whose
// signature shares no bit with a constant's probe mask provably lacks
// that label at every precision level retrieval admits (exact, token,
// thesaurus synonym) — the signature's error is one-sided, so a
// synonym-expanded candidate is never charged for a constant it matches
// approximately.
//
// The ranking key orders by total missing constants first and length
// deficit second; the candidates are bucketed by it, one bucket per
// (missing, deficit) pair, so no deficit can outrank a missing constant.
//
// Second, the fingerprint survivors (missing = 0) are confirmed against
// the exact expansion intersection — PathsByAllLabels of the constants:
// a survivor outside it truly misses at least one constant, so a
// colliding signature that hid every miss is bumped back to missing = 1.
// Membership can only raise counts back toward the truth — collisions
// fake containment, never absence — so the cut stays deterministic. The
// survivors are confirmed deficit bucket by deficit bucket, in ID order,
// by a leapfrog that stops at the budget: the confirmed ones sort before
// everything else, so once budget of them are known they are the cut and
// the rest of the intersection is never computed.
func (e *Engine) preRank(r backend, sc *clusterScratch, ids []index.PathID, q paths.Path) (cut []index.PathID, boundary int, err error) {
	budget := 2 * e.opts.maxCandidates()
	if len(ids) < budget {
		return ids, 0, nil
	}
	sums, err := r.SummariesInto(&sc.idx, ids)
	if err != nil {
		return nil, 0, err
	}
	labels, masks := queryConstants(r, q)

	qlen := q.Length()
	maxDeficit := min(qlen, 0xffff)
	buckets := slices.Grow(sc.buckets[:0], len(ids))[:len(ids)]
	sc.buckets = buckets
	nb := (len(masks) + 1) * (maxDeficit + 1)
	counts := slices.Grow(sc.counts[:0], nb)[:nb]
	sc.counts = counts
	clear(counts)
	for i := range ids {
		b := bucket(sums[i], masks, qlen, maxDeficit)
		buckets[i] = uint32(b)
		counts[b]++
	}
	out := slices.Grow(sc.cands[:0], budget)
	if len(labels) > 0 {
		for d := 0; d <= maxDeficit; d++ {
			if counts[d] == 0 {
				continue
			}
			surv := sc.surv[:0]
			for i, b := range buckets {
				if int(b) == d {
					surv = append(surv, ids[i])
				}
			}
			sc.surv = surv
			n := len(out)
			out = r.PathsByAllLabelsAmong(out, surv, labels, budget-n)
			if len(out) == budget {
				sc.cands = out
				return out, d, nil
			}
			// The bucket ran out before the budget filled, so every
			// membership in it is known: the unconfirmed move to missing = 1.
			k := n
			for i, b := range buckets {
				switch {
				case int(b) != d:
				case k < len(out) && out[k] == ids[i]:
					k++
				default:
					buckets[i] = uint32(d + maxDeficit + 1)
					counts[d]--
					counts[d+maxDeficit+1]++
				}
			}
		}
	}
	// Stable counting cut: the bucket space is tiny (missing ≤
	// |constants|, deficit ≤ |q|), so bucket offsets replace the
	// comparison sort — two passes over the candidates, no permutation
	// slice. Buckets fill in input order, reproducing the stable sort's
	// frontier element for element.
	total := 0
	for b, n := range counts {
		if total < budget && total+n >= budget {
			boundary = b
		}
		counts[b] = total
		total += n
	}
	out = out[:budget]
	sc.cands = out
	for i, b := range buckets {
		pos := counts[b]
		counts[b] = pos + 1
		if pos < budget {
			out[pos] = ids[i]
		}
	}
	return out, boundary, nil
}

// bucket is a candidate's pre-rank bucket by its summary alone:
// missing·(maxDeficit+1)+deficit, so that bucket order is the ranking
// key's ascending (missing, deficit) order. The intersection may still
// demote a missing = 0 bucket by maxDeficit+1 (preRank).
func bucket(s index.PathSummary, masks []uint64, qlen, maxDeficit int) int {
	missing := 0
	for _, mask := range masks {
		if s.Sig&mask == 0 {
			missing++
		}
	}
	deficit := 0
	if plen := int(s.Len); plen < qlen {
		deficit = min(qlen-plen, maxDeficit)
	}
	return missing*(maxDeficit+1) + deficit
}

// selectClusterItems returns, in sc.kept, the first capN of items in
// (cost, ID) order. items arrive in ascending ID order — the cut is
// sorted, alignAll stages in cut order, and the full-length partition
// keeps its head in order — so (cost, ID) order is items grouped
// stably by cost. The costs are few (members of a class share one), so
// one pass counts items per distinct cost and a second places each
// item at its group's next slot, skipping those past the cap.
func selectClusterItems(sc *clusterScratch, items []ClusterItem, capN int) []ClusterItem {
	costs, offs := sc.costs[:0], sc.offs[:0]
	for _, it := range items {
		c, found := slices.BinarySearch(costs, it.Cost)
		if !found {
			costs, offs = slices.Insert(costs, c, it.Cost), slices.Insert(offs, c, 0)
		}
		offs[c]++
	}
	for c, at := 0, 0; c < len(offs); c++ {
		offs[c], at = at, at+offs[c]
	}
	n := min(len(items), capN)
	kept := slices.Grow(sc.kept[:0], n)[:n]
	for _, it := range items {
		c, _ := slices.BinarySearch(costs, it.Cost)
		if offs[c] < n {
			kept[offs[c]] = it
		}
		offs[c]++
	}
	sc.costs, sc.offs, sc.kept = costs, offs, kept
	return kept
}

// alignAll reads the pre-ranked candidates' term-ID runs in one
// page-locality batched read and aligns them into sc.staged, once per
// class of the cut (align.AppendClassKey): a class's first candidate is
// decoded and aligned, and the others take its alignment, their
// bindings read at its positions in their own runs (keep). A class
// whose first candidate broke a window tie is split by tie keys, each
// term's relation computed once per build; past 64 constants every
// candidate is a class. It returns the read's page work and the
// alignments it ran. Cancellation is cooperative per candidate: entries
// not yet aligned are left out, a smaller but still best-first cluster.
func (e *Engine) alignAll(ctx context.Context, r backend, sc *clusterScratch, q paths.Path, ids []index.PathID) ([]ClusterItem, storage.Reads, int, error) {
	runs, reads, err := r.ReadPathsBatched(ctx, ids)
	if err != nil && ctx.Err() == nil {
		return nil, reads, 0, err
	}
	// On a cancelled batch read, align what was read, if anything.
	terms, al, aligned := r.Terms(), align.NewGreedy(e.par), 0
	sc.consts = sc.consts[:0]
	for _, t := range slices.Concat(q.Nodes, q.Edges) {
		if t.IsConstant() {
			id, ok := r.TermID(t)
			if !ok {
				id = math.MaxUint32 // on no path
			}
			sc.consts = append(sc.consts, id)
		}
	}
	related := func(id uint32) uint64 {
		rel, ok := sc.related[id]
		if !ok {
			rel = al.Related(q, terms[id])
			sc.related[id] = rel
		}
		return rel
	}
	sc.staged, sc.runs, sc.als = sc.staged[:0], runs, slices.Grow(sc.als[:0], len(runs))[:len(runs)]
	for m, run := range runs {
		if ctx.Err() != nil {
			break
		}
		if run == nil {
			continue // not read: batch read was cancelled
		}
		c, found, split := class{}, false, false
		if len(sc.consts) <= 64 {
			sc.key = align.AppendClassKey(sc.key[:0], run, sc.consts)
			if c, found = sc.classes[string(sc.key)]; found && c.tied {
				sc.key, split = align.AppendTieKey(sc.key, run, related), true
				c, found = sc.classes[string(sc.key)]
			}
		}
		if !found {
			c = class{al.Align(terms.Path(run), q), al.Tied()}
			aligned++
			if len(sc.consts) <= 64 {
				if c.tied && !split {
					sc.classes[string(sc.key)] = c
					sc.key = align.AppendTieKey(sc.key, run, related)
				}
				sc.classes[string(sc.key)] = c
			}
		}
		sc.als[m] = c.al
		sc.staged = append(sc.staged, ClusterItem{ID: ids[m], Cost: c.al.Cost, run: span{uint32(m), uint32(len(run))}})
	}
	return sc.staged, reads, aligned, nil
}

// retrievalStep is one step of retrieve's cascade: the live paths whose
// sink, or any of whose labels, matches one of the query path's
// constants.
type retrievalStep struct {
	field index.Field
	label string
}

// cascade returns q's retrieval steps in the order retrieve tries them:
// sink postings, then whole-path containment of the sink — no path ends
// at a matching sink, so degrade to containment and the approximate
// search still has material to work with — or, for a variable sink, of
// the first constant from the end, then the constant edge labels,
// scanned from the sink end like the nodes.
func cascade(q paths.Path) []retrievalStep {
	var steps []retrievalStep
	if sink := q.Sink(); sink.IsConstant() {
		steps = append(steps, retrievalStep{index.Sinks, sink.Label()}, retrievalStep{index.Labels, sink.Label()})
	} else if v, ok := q.FirstConstantFromEnd(); ok {
		steps = append(steps, retrievalStep{index.Labels, v.Label()})
	}
	for i := len(q.Edges) - 1; i >= 0; i-- {
		if q.Edges[i].IsConstant() {
			steps = append(steps, retrievalStep{index.Labels, q.Edges[i].Label()})
		}
	}
	return steps
}

// retrieve returns the candidate path IDs for one query path, held by
// sc, and the cascade step that found them. Every step falls through to
// the next when it comes back empty, and the last resort is the bounded
// fallback scan (step len(cascade(q))), so a query path only contributes
// zero candidates when the index itself has no live paths.
func retrieve(r backend, sc *clusterScratch, q paths.Path) ([]index.PathID, int) {
	steps := cascade(q)
	for i, st := range steps {
		lookup := r.PathsByLabelInto
		if st.field == index.Sinks {
			lookup = r.PathsBySinkInto
		}
		if ids := lookup(&sc.idx, st.label); len(ids) > 0 {
			return ids, i
		}
	}
	return fallbackScan(r, maxClusterFallback), len(steps)
}

// fallbackScan collects up to max (> 0) live path IDs sampled
// uniformly across the whole ID space: with stride s = ceil(N/max) it
// takes every s-th ID starting at offset 0, then offset 1, and so on,
// so the sample reaches the high end of the ID range even when earlier
// IDs were tombstoned by deletions or renumbered by compaction (a scan
// that always starts at zero re-collects the same low IDs forever and
// never surfaces later inserts). The result is deterministic for a
// given index state; the worst case — most paths tombstoned — visits
// all N liveness bits, and never reads disk.
func fallbackScan(r backend, max int) []index.PathID {
	n := r.NumPaths()
	ids := make([]index.PathID, 0, max)
	stride := (n + max - 1) / max
	if stride < 1 {
		stride = 1
	}
	for start := 0; start < stride && len(ids) < max; start++ {
		for i := start; i < n && len(ids) < max; i += stride {
			if r.Live(index.PathID(i)) {
				ids = append(ids, index.PathID(i))
			}
		}
	}
	return ids
}
