// Package cache provides the epoch-validated LRU that backs the
// engine's alignment memo. The package is generic on purpose: values are
// opaque `any`, keys are strings, and freshness is expressed as a
// caller-supplied epoch — a monotonic counter the owner bumps on every
// mutation of the underlying data. An entry stores the epoch it was
// computed at, and a lookup presenting a different epoch treats the
// entry as stale: Renew hands it to the caller, which either
// re-confirms it against the current data (served and stored again, a
// hit) or refuses it (removed, a miss). So a hit can never return a
// value computed before the last write that its caller has not
// re-confirmed since.
//
// Capacity is a byte budget fed by caller-supplied size hints (memo
// values vary from a few dozen bytes to hundreds of kilobytes). It
// evicts least-recently-used entries first and holds to the entry:
// there is one recency list, so nothing is evicted while the cache as a
// whole has room.
//
// The cache is safe for concurrent use: one mutex guards the map and
// the list (the memo is probed once per query path), and the
// hit/miss/eviction/invalidation counters are atomics readable at any
// rate without taking it.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// entryOverhead approximates the bookkeeping bytes per entry (map cell,
// list element, entry struct) charged on top of the caller's size hint.
const entryOverhead = 96

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups that returned a fresh or re-confirmed value.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that found nothing (stale entries included:
	// an invalidation is also a miss).
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped to stay within the byte budget.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts stale entries dropped because their inputs
	// changed: those Renew's caller refuses.
	Invalidations uint64 `json:"invalidations"`
	// Entries is the number of live entries.
	Entries int `json:"entries"`
	// Bytes is the charged size of the live entries (size hints plus
	// per-entry overhead).
	Bytes int64 `json:"bytes"`
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is an LRU keyed by string with epoch-checked freshness.
// The zero value is not usable; construct with New. A nil *Cache is
// valid and behaves as an always-miss cache that stores nothing, so
// callers can leave caching disabled without guarding every call site.
type Cache struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64

	hits, misses, evictions, invalidations atomic.Uint64
}

type entry struct {
	key   string
	epoch uint64
	value any
	size  int64
}

// New returns a cache bounded by maxBytes charged bytes.
func New(maxBytes int64) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Renew looks key up at epoch. A fresh entry (stored at epoch) is
// returned and counted as a hit, a missing one as a miss. An entry
// stored at another epoch is not dropped outright: renew gets
// its value, called without the cache's lock held, and returns the
// value to serve in its place with its size, or false when the old
// value no longer holds. A renewed value is stored at epoch (as Put
// stores it) and counts as a hit; a refused one is dropped and counts
// as one invalidation and a miss.
func (c *Cache) Renew(key string, epoch uint64, renew func(stale any) (value any, size int, ok bool)) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	en := el.Value.(*entry)
	if en.epoch == epoch {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return en.value, true
	}
	c.mu.Unlock()
	if v, size, ok := renew(en.value); ok {
		c.Put(key, epoch, v, size)
		c.hits.Add(1)
		return v, true
	}
	c.mu.Lock()
	// Dropped unless replaced meanwhile; an entry from a newer epoch than
	// the caller's is the fresher value and stays, as in Put.
	if el, ok := c.entries[key]; ok && el.Value == en && en.epoch < epoch {
		c.remove(el, en)
	}
	c.mu.Unlock()
	c.invalidations.Add(1)
	c.misses.Add(1)
	return nil, false
}

// Put stores value under key at the given epoch, replacing any previous
// entry for key stored at the same or an older epoch. An entry stored
// at a newer epoch stays: epochs only grow, so it is the fresher value,
// and a slow computation finishing after a faster one that started
// after a write must not overwrite it. size is the caller's estimate of
// the value's bytes; the per-entry overhead and key length are charged
// on top. The value must be treated as read-only by everyone from here
// on: hits share it across goroutines.
func (c *Cache) Put(key string, epoch uint64, value any, size int) {
	if c == nil {
		return
	}
	charged := int64(size) + int64(len(key)) + entryOverhead
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		en := el.Value.(*entry)
		if en.epoch > epoch {
			c.mu.Unlock()
			return
		}
		c.remove(el, en)
	}
	en := &entry{key: key, epoch: epoch, value: value, size: charged}
	c.entries[key] = c.lru.PushFront(en)
	c.bytes += charged
	// Evict from the cold end until the budget holds; the entry just
	// stored stays even when it alone exceeds it.
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		victim := c.lru.Back()
		c.remove(victim, victim.Value.(*entry))
		c.evictions.Add(1)
	}
	c.mu.Unlock()
}

// remove unlinks an entry. Caller holds c.mu.
func (c *Cache) remove(el *list.Element, en *entry) {
	c.lru.Remove(el)
	delete(c.entries, en.key)
	c.bytes -= en.size
}

// Stats snapshots the counters. Safe to call at any rate; the counter
// fields are read without the lock, so a snapshot taken during
// concurrent traffic is consistent per field, not across fields.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
	c.mu.Lock()
	st.Entries, st.Bytes = c.lru.Len(), c.bytes
	c.mu.Unlock()
	return st
}

// Purge drops every entry (counters are kept).
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.bytes = 0
	c.mu.Unlock()
}
