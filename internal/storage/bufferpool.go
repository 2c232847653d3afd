package storage

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// PoolStats is a snapshot of the buffer pool counters; used by the
// cold/warm cache experiments, by capacity tuning, and by the
// observability layer's per-query I/O attribution.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64
	// Retries counts transient I/O errors absorbed by the retry policy
	// (each is one extra attempt, not one failed operation).
	Retries uint64
}

// poolCounters are the live counters behind PoolStats. They are
// atomics so Stats can snapshot them without taking the pool lock —
// metric scrapes and per-query attribution read them while concurrent
// queries fault pages in.
type poolCounters struct {
	hits, misses, evictions, flushes, retries atomic.Uint64
}

func (c *poolCounters) snapshot() PoolStats {
	return PoolStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Flushes:   c.flushes.Load(),
		Retries:   c.retries.Load(),
	}
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s PoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// BufferPool caches page frames over a PageIO (normally a *PageFile)
// with LRU replacement. All index reads go through a pool, so its state
// defines the cache temperature: DropCache empties it (cold), repeated
// traffic warms it. BufferPool is safe for concurrent use.
//
// I/O errors that unwrap to ErrTransient are retried a bounded number
// of times with exponential backoff before surfacing, so hiccups in the
// underlying store degrade to latency instead of failed queries. The
// backoff sleeps while holding the pool lock — transient faults are
// expected to be rare and short.
type BufferPool struct {
	mu       sync.Mutex
	file     PageIO
	capacity int
	frames   map[PageID]*list.Element
	lru      *list.List // front = most recent
	stats    poolCounters
	closed   bool

	retries int           // extra attempts after a transient failure
	backoff time.Duration // first retry delay, doubled per attempt
}

type frame struct {
	id    PageID
	data  [PageSize]byte
	dirty bool
}

// DefaultPoolPages is the default pool capacity (pages).
const DefaultPoolPages = 1024

// Default retry policy for transient I/O errors.
const (
	DefaultIORetries = 3
	DefaultIOBackoff = 100 * time.Microsecond
)

// NewBufferPool returns a pool of the given capacity (in pages) over
// file. Capacity must be at least 1; 0 selects DefaultPoolPages.
func NewBufferPool(file PageIO, capacity int) *BufferPool {
	if capacity <= 0 {
		capacity = DefaultPoolPages
	}
	return &BufferPool{
		file:     file,
		capacity: capacity,
		frames:   make(map[PageID]*list.Element, capacity),
		lru:      list.New(),
		retries:  DefaultIORetries,
		backoff:  DefaultIOBackoff,
	}
}

// SetRetryPolicy overrides the transient-fault retry policy: retries
// extra attempts, the first after backoff, doubling each time.
// retries ≤ 0 disables retrying.
func (bp *BufferPool) SetRetryPolicy(retries int, backoff time.Duration) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.retries = retries
	bp.backoff = backoff
}

// retryIO runs op, retrying transient failures per the pool's policy.
// Retries are charged to the global counters and, when non-nil, to the
// caller's per-operation tally. Caller holds bp.mu.
func (bp *BufferPool) retryIO(t *IOTally, op func() error) error {
	err := op()
	delay := bp.backoff
	for attempt := 0; attempt < bp.retries && errors.Is(err, ErrTransient); attempt++ {
		bp.stats.retries.Add(1)
		t.addRetry()
		if delay > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		err = op()
	}
	return err
}

// Update applies fn to the cached content of page id and marks it
// dirty. If fn fails, nothing is marked: fn must then have left the page
// as it found it.
func (bp *BufferPool) Update(id PageID, fn func(page []byte) error) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.closed {
		return ErrClosed
	}
	fr, err := bp.frame(id, nil)
	if err != nil {
		return err
	}
	if err := fn(fr.data[:]); err != nil {
		return err
	}
	fr.dirty = true
	return nil
}

// View is the pool's one read: it applies fn to read-only views of the
// given pages, in order, under a single lock acquisition — one lock
// round trip and one LRU pass per page group instead of one per record.
// Accesses are charged to the global counters and to t (nil counts
// nothing). fn must not retain the page slice; any data it needs after
// the call must be copied out. An fn error aborts the pass and is
// returned verbatim.
func (bp *BufferPool) View(t *IOTally, ids []PageID, fn func(i int, page []byte) error) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.closed {
		return ErrClosed
	}
	for i, id := range ids {
		fr, err := bp.frame(id, t)
		if err != nil {
			return err
		}
		if err := fn(i, fr.data[:]); err != nil {
			return err
		}
	}
	return nil
}

// Alloc allocates a fresh page in the underlying file and caches its
// (zeroed) frame.
func (bp *BufferPool) Alloc() (PageID, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.closed {
		return 0, ErrClosed
	}
	id, err := bp.file.Alloc()
	if err != nil {
		return 0, err
	}
	if bp.lru.Len() >= bp.capacity {
		victim, err := bp.evict(nil)
		if err != nil {
			return 0, err
		}
		bp.lru.Remove(victim)
	}
	bp.frames[id] = bp.lru.PushFront(&frame{id: id})
	return id, nil
}

// frame returns the cached frame for id, faulting it in if needed,
// charging the access to the global counters and the tally (nil counts
// nothing). Caller holds bp.mu.
//
// A miss below capacity reads into a fresh frame. At capacity it evicts
// the LRU victim first and reads into the victim's frame, which no page
// maps to until the read has overwritten it. If that read fails the
// victim stays evicted and nothing is installed.
func (bp *BufferPool) frame(id PageID, t *IOTally) (*frame, error) {
	if el, ok := bp.frames[id]; ok {
		bp.stats.hits.Add(1)
		t.addHit()
		bp.lru.MoveToFront(el)
		return el.Value.(*frame), nil
	}
	bp.stats.misses.Add(1)
	t.addMiss()
	var el *list.Element // the recycled victim; nil below capacity
	var fr *frame
	if bp.lru.Len() < bp.capacity {
		fr = &frame{}
	} else {
		var err error
		if el, err = bp.evict(t); err != nil {
			return nil, err
		}
		fr = el.Value.(*frame)
	}
	if err := bp.retryIO(t, func() error { return bp.file.Read(id, fr.data[:]) }); err != nil {
		if el != nil {
			bp.lru.Remove(el)
		}
		return nil, err
	}
	fr.id = id
	if el == nil {
		el = bp.lru.PushFront(fr)
	} else {
		bp.lru.MoveToFront(el)
	}
	bp.frames[id] = el
	return fr, nil
}

// evict flushes the LRU victim if it is dirty and unmaps it, returning
// its list element — still linked, its frame clean — for the caller to
// reuse or remove. A failed flush leaves the pool untouched. Caller
// holds bp.mu with the pool at capacity.
func (bp *BufferPool) evict(t *IOTally) (*list.Element, error) {
	victim := bp.lru.Back()
	vf := victim.Value.(*frame)
	if vf.dirty {
		if err := bp.retryIO(t, func() error { return bp.file.Write(vf.id, vf.data[:]) }); err != nil {
			return nil, err
		}
		vf.dirty = false
		bp.stats.flushes.Add(1)
	}
	delete(bp.frames, vf.id)
	bp.stats.evictions.Add(1)
	return victim, nil
}

// Flush writes every dirty frame back to the file and syncs it.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.closed {
		return ErrClosed
	}
	return bp.flushLocked()
}

func (bp *BufferPool) flushLocked() error {
	for el := bp.lru.Front(); el != nil; el = el.Next() {
		fr := el.Value.(*frame)
		if fr.dirty {
			if err := bp.retryIO(nil, func() error { return bp.file.Write(fr.id, fr.data[:]) }); err != nil {
				return err
			}
			fr.dirty = false
			bp.stats.flushes.Add(1)
		}
	}
	return bp.file.Sync()
}

// DropCache flushes dirty pages and then empties the pool, returning it
// to a cold state. This is the cold-cache control of the Figure 6
// protocol.
func (bp *BufferPool) DropCache() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.closed {
		return ErrClosed
	}
	if err := bp.flushLocked(); err != nil {
		return err
	}
	bp.frames = make(map[PageID]*list.Element, bp.capacity)
	bp.lru.Init()
	return nil
}

// Stats returns a snapshot of the pool counters. It does not take the
// pool lock — the counters are atomics — so it is safe to call at any
// rate while queries run.
func (bp *BufferPool) Stats() PoolStats {
	return bp.stats.snapshot()
}

// Close flushes and marks the pool closed (the underlying file is not
// closed; the owner closes it).
func (bp *BufferPool) Close() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.closed {
		return nil
	}
	err := bp.flushLocked()
	bp.closed = true
	return err
}
