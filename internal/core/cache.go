package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"sama/internal/align"
	"sama/internal/cache"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
)

// The engine's two cache levels, both epoch-validated against the index
// (see internal/cache and DESIGN.md §8):
//
//   - The answer cache keeps complete query results. Its key
//     canonicalizes everything the result depends on: the query graph
//     (triples rendered and sorted, so textual orderings of the same
//     graph share an entry), k, the scoring params, and the budget
//     options that shape the search.
//   - The alignment memo keeps (data path, λ alignment) values keyed by
//     query-path signature and PathID, short-circuiting both the disk
//     read and the alignment in buildCluster when different queries
//     decompose into the same path shape.
//
// Partial runs (deadline or cancellation) are deliberately never
// cached: their answer sets depend on where the clock cut the search,
// not just on the inputs.

// cachedAnswer is one answer-cache value. The answers and everything
// they reference are shared by every later hit; read-only by contract.
type cachedAnswer struct {
	answers    []Answer
	queryPaths int
}

// memoItem is one alignment-memo value. sig is the full query-path
// signature the entry was stored under: memo keys carry only a 64-bit
// fingerprint of it, so hits re-verify the signature and a fingerprint
// collision degrades to a miss instead of a wrong alignment.
type memoItem struct {
	sig  string
	path paths.Path
	al   *align.Alignment
}

// answerCacheKey canonicalizes one query execution. Triple order must
// not matter (the same graph can be written in any order), so the
// rendered triples are sorted; term kinds are distinguished by
// Term.String (IRI vs literal vs variable).
func (e *Engine) answerCacheKey(q *rdf.QueryGraph, k int) string {
	ts := q.Triples()
	lines := make([]string, len(ts))
	for i, t := range ts {
		lines[i] = t.S.String() + " " + t.P.String() + " " + t.O.String()
	}
	sort.Strings(lines)
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d p=%g,%g,%g,%g,%g raw=%t cand=%d comb=%d\x00",
		k, e.par.A, e.par.B, e.par.C, e.par.D, e.par.E, e.opts.RawChi,
		e.opts.maxCandidates(), e.opts.maxCombinations())
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// memoRef addresses one cluster build's memo entries: the query-path
// signature plus its 64-bit FNV-1a fingerprint, hashed once per build.
// Keys embed only the fingerprint (a fixed 17-byte string), so the
// per-candidate probe hashes 17 bytes instead of rescanning the full
// signature; hits verify memoItem.sig against qsig before use. Params
// are not part of the key: the memo lives inside one engine, whose
// params are fixed at construction.
type memoRef struct {
	qsig string
	pfx  uint64
}

func memoRefFor(qsig string) memoRef { return memoRef{qsig: qsig, pfx: fnv64(qsig)} }

// key returns the cache key for one (query-path shape, data path)
// pair. The leading 'a' keeps alignment keys disjoint from the
// intersection-memo keys (interKey), which share the cache.
func (r memoRef) key(id index.PathID) string {
	var b [17]byte
	b[0] = 'a'
	binary.BigEndian.PutUint64(b[1:9], r.pfx)
	binary.BigEndian.PutUint64(b[9:], uint64(id))
	return string(b[:])
}

// memoGet is alignMemo.Get plus the signature check. Callers must hold
// a non-nil alignMemo.
func (e *Engine) memoGet(r memoRef, id index.PathID, epoch uint64) (*memoItem, bool) {
	v, ok := e.alignMemo.Get(r.key(id), epoch)
	if !ok {
		return nil, false
	}
	mi := v.(*memoItem)
	if mi.sig != r.qsig {
		return nil, false
	}
	return mi, true
}

// memoPut stores one aligned candidate under r's fingerprint.
func (e *Engine) memoPut(r memoRef, id index.PathID, epoch uint64, p paths.Path, al *align.Alignment) {
	e.alignMemo.Put(r.key(id), epoch,
		&memoItem{sig: r.qsig, path: p, al: al}, memoSize(p, al)+len(r.qsig))
}

// interKey is the cache key of one query-path shape's exact label
// intersection (see pathsByAllLabelsCached). The leading 'i' keeps the
// space disjoint from memoRef.key's 'a' keys.
func interKey(qsig string) string { return "i" + qsig }

// fnv64 is 64-bit FNV-1a over s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// memoSize estimates the bytes a memo item pins, for the byte budget.
func memoSize(p paths.Path, al *align.Alignment) int {
	n := 160 // struct shells
	for _, t := range p.Nodes {
		n += len(t.Value) + 48
	}
	for _, t := range p.Edges {
		n += len(t.Value) + 48
	}
	for name, v := range al.Subst {
		n += len(name) + len(v.Value) + 64
	}
	return n
}

// cacheName is the value of the metric families' cache label.
const (
	cacheAnswer = "answer"
	cacheAlign  = "align"
)

// registerCacheMetrics exposes one cache's counters in reg, evaluated
// at scrape time:
//
//	sama_cache_hits_total{cache}           lookups served from the cache
//	sama_cache_misses_total{cache}         lookups that found nothing
//	sama_cache_evictions_total{cache}      entries dropped for capacity
//	sama_cache_invalidations_total{cache}  entries dropped on epoch mismatch
//	sama_cache_entries{cache}              live entries
//	sama_cache_bytes{cache}                charged bytes of live entries
func registerCacheMetrics(reg *obs.Registry, name string, c *cache.Cache) {
	if reg == nil || c == nil {
		return
	}
	reg.CounterFunc("sama_cache_hits_total",
		"Cache lookups served from the cache.",
		func() uint64 { return c.Stats().Hits }, "cache", name)
	reg.CounterFunc("sama_cache_misses_total",
		"Cache lookups that found nothing (stale entries included).",
		func() uint64 { return c.Stats().Misses }, "cache", name)
	reg.CounterFunc("sama_cache_evictions_total",
		"Cache entries dropped to stay within budget.",
		func() uint64 { return c.Stats().Evictions }, "cache", name)
	reg.CounterFunc("sama_cache_invalidations_total",
		"Cache entries dropped because the index epoch moved.",
		func() uint64 { return c.Stats().Invalidations }, "cache", name)
	reg.GaugeFunc("sama_cache_entries",
		"Live cache entries.",
		func() float64 { return float64(c.Stats().Entries) }, "cache", name)
	reg.GaugeFunc("sama_cache_bytes",
		"Charged bytes of the live cache entries.",
		func() float64 { return float64(c.Stats().Bytes) }, "cache", name)
}

// CacheStats snapshots the engine's cache counters, keyed "answer" and
// "align". Disabled caches are omitted; with caching off entirely the
// map is empty. The /debug/vars cache section serves this.
func (e *Engine) CacheStats() map[string]cache.Stats {
	out := map[string]cache.Stats{}
	if e.ansCache != nil {
		out[cacheAnswer] = e.ansCache.Stats()
	}
	if e.alignMemo != nil {
		out[cacheAlign] = e.alignMemo.Stats()
	}
	return out
}
