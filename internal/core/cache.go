package core

import (
	"sama/internal/cache"
	"sama/internal/index"
	"sama/internal/obs"
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
	items []ClusterItem
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
// cut by and surviving the pre-rank, how many of the survivors this pass
// aligned itself (all on a miss, none on a hit), the shorter-path
// fallback, and candidates dropped by the cluster cap.
func (cc *cachedCluster) describe(sp *obs.Span, aligned int) {
	if cut := cc.retrieved - cc.preranked; cut > 0 {
		sp.Set("sig_rejected", int64(cut))
	}
	sp.Set("preranked", int64(cc.preranked))
	sp.Set("memo_hits", int64(cc.preranked-aligned))
	sp.Set("aligned", int64(aligned))
	if cc.shorterFallback > 0 {
		sp.Set("shorter_fallback", int64(cc.shorterFallback))
	}
	if cc.capDropped > 0 {
		sp.Set("cap_dropped", int64(cc.capDropped))
	}
}

// memoSize estimates the bytes one cluster pins, for the memo's byte
// budget: 4 per ID of its cut, and per kept item its path and
// alignment.
func memoSize(cc *cachedCluster) int {
	n := 4 * len(cc.cut)
	for _, item := range cc.items {
		n += 160 // struct shells
		for _, t := range item.Path.Nodes {
			n += len(t.Value) + 48
		}
		for _, t := range item.Path.Edges {
			n += len(t.Value) + 48
		}
		for name, v := range item.Alignment.Subst {
			n += len(name) + len(v.Value) + 64
		}
	}
	return n
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
	if reg == nil || c == nil {
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
// "align"; with the memo off the map is empty.
func (e *Engine) CacheStats() map[string]cache.Stats {
	out := map[string]cache.Stats{}
	if e.alignMemo != nil {
		out[cacheAlign] = e.alignMemo.Stats()
	}
	return out
}
