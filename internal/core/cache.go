package core

import (
	"slices"
	"unsafe"

	"sama/internal/align"
	"sama/internal/cache"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/paths"
)

// The engine's one cache level, epoch-validated against the index (see
// internal/cache and DESIGN.md §8): the alignment memo keeps whole
// clusters keyed by query-path signature (paths.Path.Key),
// short-circuiting all of buildCluster — retrieval, pre-rank, disk read
// and alignment — when different queries decompose into the same path
// shape, and when the writes since left the cluster's cut as it was,
// which is decided from what they changed. Params are not part of the
// key: the memo lives inside one engine, whose params are fixed at
// construction.
//
// Partial builds (deadline or cancellation) are deliberately never
// memoised: what they aligned depends on where the clock cut them, not
// just on the inputs.

// cachedCluster is one alignment-memo value: what buildCluster made of
// one query-path shape at one epoch — the kept items, the retrieval
// count and the decisions the explain plan reports. The pre-rank cut is
// deterministic, so a later build of the same shape would pre-rank the
// same candidates and keep the same items: a hit is all of them or none.
// Everything but retrieved is a function of the records the cut names,
// so an entry whose cut a later epoch would pick again, within its
// layout, still holds (see buildCluster). Shared by every later hit;
// read-only by contract.
type cachedCluster struct {
	// items are the kept items, runs and binds as in Cluster (exact size).
	items []ClusterItem
	runs  []uint32
	binds []binding
	// cut is the pre-ranked candidates the items were aligned from,
	// ascending, and layout the index layout their IDs belong to.
	cut    []index.PathID
	layout uint64
	// mark is the index watermark the cut was last confirmed at, step the
	// retrieval cascade step its candidates came from, and boundary the
	// pre-rank bucket of its last candidate: what reconfirm decides from.
	mark     index.Watermark
	step     int
	boundary int
	// size is the entry's charge to the memo's byte budget.
	size int
	// retrieved is Cluster.Retrieved; the others are explain counters.
	retrieved, preranked, shorterFallback, capDropped int
}

// describe sets the cluster pass's decision counters on sp: candidates
// cut by and surviving the pre-rank, the survivors the memo served
// (all on a hit, none on a miss), the greedy alignments this pass ran
// (one per class of the cut on a miss, none on a hit), the shorter-path
// fallback, and candidates dropped by the cluster cap.
func (cc *cachedCluster) describe(sp *obs.Span, memoHits, aligned int) {
	if cut := cc.retrieved - cc.preranked; cut > 0 {
		sp.Set("sig_rejected", int64(cut))
	}
	sp.Set("preranked", int64(cc.preranked))
	sp.Set("memo_hits", int64(memoHits))
	sp.Set("aligned", int64(aligned))
	if cc.shorterFallback > 0 {
		sp.Set("shorter_fallback", int64(cc.shorterFallback))
	}
	if cc.capDropped > 0 {
		sp.Set("cap_dropped", int64(cc.capDropped))
	}
}

// keep stores items, staged in sc for query path q, in three exact-size
// arrays. A binding's ID is the item's run's at the position its
// alignment, which may be its class representative's, bound it at.
func (cc *cachedCluster) keep(items []ClusterItem, sc *clusterScratch, q paths.Path) {
	nr, nb := 0, 0
	for _, it := range items {
		nr, nb = nr+int(it.run.n), nb+len(sc.als[it.run.at].Subst)
	}
	cc.items, cc.runs, cc.binds = make([]ClusterItem, len(items)), make([]uint32, 0, nr), make([]binding, 0, nb)
	vars := q.Vars()
	for i, it := range items {
		run, al := sc.runs[it.run.at], sc.als[it.run.at]
		it.ops = [8]int32{int32(al.NodeMismatches), int32(al.NodeInsertions), int32(al.EdgeMismatches),
			int32(al.EdgeInsertions), int32(al.NodeDeletions), int32(al.EdgeDeletions),
			int32(al.ContextNodes), int32(al.ContextEdges)}
		it.run.at, it.subst = uint32(len(cc.runs)), span{uint32(len(cc.binds)), uint32(len(al.Subst))}
		cc.runs = append(cc.runs, run...)
		for slot, name := range vars {
			if i := slices.IndexFunc(al.Bound, func(b align.Binding) bool { return b.Var == name }); i >= 0 {
				at := al.Bound[i].At
				if al.Bound[i].Edge {
					at += (len(run) + 1) / 2
				}
				cc.binds = append(cc.binds, binding{uint32(slot), run[at]})
			}
		}
		cc.items[i] = it
	}
}

// cluster serves the entry to query path q (Preprocessed.Paths[qi])
// read through r, whose term table decodes the entry's IDs.
func (cc *cachedCluster) cluster(r backend, qi int, q paths.Path) Cluster {
	c := Cluster{QueryIndex: qi, Query: q, Items: cc.items, Retrieved: cc.retrieved,
		runs: cc.runs, binds: cc.binds, vars: q.Vars(), terms: r.Terms(), consts: make([]uint32, len(q.Nodes))}
	for i, t := range q.Nodes {
		if id, ok := r.TermID(t); ok { // a variable is in no dictionary
			c.consts[i] = id + 1
		}
	}
	return c
}

// memoSize is the bytes one entry pins, for the memo's byte budget (the
// cache adds its key): its shell and four arrays at capacity.
func memoSize(cc *cachedCluster) int {
	return int(unsafe.Sizeof(*cc)) + cap(cc.items)*int(unsafe.Sizeof(ClusterItem{})) +
		cap(cc.runs)*4 + cap(cc.binds)*int(unsafe.Sizeof(binding{})) + cap(cc.cut)*int(unsafe.Sizeof(index.PathID(0)))
}

// cacheAlign is the memo's value of the metric families' cache label
// and its key in CacheStats.
const cacheAlign = "align"

// registerCacheMetrics exposes one cache's counters in reg, evaluated
// at scrape time:
//
//	sama_cache_hits_total{cache}           lookups served from the cache
//	sama_cache_misses_total{cache}         lookups that found nothing
//	sama_cache_invalidations_total{cache}  stale entries whose inputs changed
//	sama_cache_entries{cache}              live entries
//
// Evictions and charged bytes stay in CacheStats.
func registerCacheMetrics(reg *obs.Registry, name string, c *cache.Cache) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sama_cache_hits_total",
		"Cache lookups served from the cache.",
		func() uint64 { return c.Stats().Hits }, "cache", name)
	reg.CounterFunc("sama_cache_misses_total",
		"Cache lookups that found nothing (stale entries not re-confirmed included).",
		func() uint64 { return c.Stats().Misses }, "cache", name)
	reg.CounterFunc("sama_cache_invalidations_total",
		"Stale cache entries dropped because their inputs changed.",
		func() uint64 { return c.Stats().Invalidations }, "cache", name)
	reg.GaugeFunc("sama_cache_entries",
		"Live cache entries.",
		func() float64 { return float64(c.Stats().Entries) }, "cache", name)
}

// CacheStats snapshots the alignment memo's counters under the key
// "align".
func (e *Engine) CacheStats() map[string]cache.Stats {
	return map[string]cache.Stats{cacheAlign: e.alignMemo.Stats()}
}
