package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(8, 0)
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1, "va", 0)
	v, ok := c.Get("a", 1)
	if !ok || v.(string) != "va" {
		t.Fatalf("Get(a,1) = %v, %v; want va, true", v, ok)
	}
	// Replacement under the same key.
	c.Put("a", 1, "vb", 0)
	if v, _ := c.Get("a", 1); v.(string) != "vb" {
		t.Fatalf("after replace: got %v, want vb", v)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestEpochMismatchInvalidates(t *testing.T) {
	c := New(8, 0)
	c.Put("a", 1, "va", 0)
	if _, ok := c.Get("a", 2); ok {
		t.Fatal("hit across an epoch bump")
	}
	// The stale entry must be gone: storing at the old epoch again must
	// not resurrect it, and the counters must record the invalidation.
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("stale entry survived its invalidating lookup")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("Hits/Misses = %d/%d, want 0/2", st.Hits, st.Misses)
	}
	if st.Entries != 0 {
		t.Fatalf("Entries = %d, want 0", st.Entries)
	}
}

// TestRenew: a fresh entry is a hit without consulting renew; a stale
// one re-confirmed is served, stored at the new epoch and counted as a
// hit; a stale one refused is dropped and counted as one invalidation
// and a miss; a missing one is a miss.
func TestRenew(t *testing.T) {
	c := New(8, 0)
	calls := 0
	renewTo := func(v any, ok bool) func(any) (any, int, bool) {
		return func(stale any) (any, int, bool) {
			calls++
			if stale.(string) != "va" {
				t.Errorf("renew got %v, want the stale value va", stale)
			}
			return v, 0, ok
		}
	}
	if _, ok := c.Renew("a", 1, renewTo(nil, false)); ok || calls != 0 {
		t.Fatalf("Renew on an empty cache: ok=%v after %d renew calls", ok, calls)
	}
	c.Put("a", 1, "va", 0)
	if v, ok := c.Renew("a", 1, renewTo(nil, false)); !ok || v.(string) != "va" || calls != 0 {
		t.Fatalf("fresh Renew = %v, %v after %d renew calls; want va, true, none", v, ok, calls)
	}
	if v, ok := c.Renew("a", 2, renewTo("va2", true)); !ok || v.(string) != "va2" || calls != 1 {
		t.Fatalf("re-confirming Renew = %v, %v; want va2, true", v, ok)
	}
	if v, ok := c.Get("a", 2); !ok || v.(string) != "va2" {
		t.Fatalf("re-confirmed value not stored at the new epoch: %v, %v", v, ok)
	}
	c.Put("a", 3, "va", 0)
	if _, ok := c.Renew("a", 4, renewTo(nil, false)); ok || calls != 2 {
		t.Fatalf("refusing Renew: ok=%v after %d renew calls", ok, calls)
	}
	if c.Len() != 0 {
		t.Fatal("a refused stale entry stayed")
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("hits/misses/invalidations = %d/%d/%d, want 3/2/1", st.Hits, st.Misses, st.Invalidations)
	}
}

// TestPutKeepsNewerEpoch: a Put at an older epoch — a slow computation
// finishing after a faster one that started after a write — must not
// replace the entry stored at the newer epoch.
func TestPutKeepsNewerEpoch(t *testing.T) {
	c := New(8, 0)
	c.Put("a", 2, "new", 0)
	c.Put("a", 1, "old", 0)
	if v, ok := c.Get("a", 2); !ok || v.(string) != "new" {
		t.Fatalf("Get(a,2) = %v, %v; want new, true", v, ok)
	}
}

func TestEntryBudgetEvictsLRU(t *testing.T) {
	c := New(2, 0)
	c.Put("first", 1, 1, 0)
	c.Put("second", 1, 2, 0)
	c.Get("first", 1) // "second" is now the least recently used
	c.Put("third", 1, 3, 0)
	if _, ok := c.Get("second", 1); ok {
		t.Fatal("LRU entry survived an over-budget insert")
	}
	for key, want := range map[string]int{"first": 1, "third": 3} {
		if v, ok := c.Get(key, 1); !ok || v.(int) != want {
			t.Fatalf("%s was evicted instead of the LRU entry", key)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestByteBudgetEvicts(t *testing.T) {
	// Every entry charges size + key + overhead, far over the whole
	// budget, so only the most recent one stays: the eviction loop
	// never drops the entry just inserted.
	c := New(0, 32)
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("k%d", i), 1, i, 1024)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 63 {
		t.Fatalf("Entries/Evictions = %d/%d, want 1/63", st.Entries, st.Evictions)
	}
	if _, ok := c.Get("k63", 1); !ok {
		t.Fatal("the entry just inserted was evicted")
	}
}

// TestBoundsAreExact: both bounds are the cache's, not a slice of it per
// hash bucket — the cache fills to exactly its budget and evicts one
// entry per insert from there on.
func TestBoundsAreExact(t *testing.T) {
	fill := func(c *Cache) Stats {
		for i := 0; i < 64; i++ {
			c.Put(fmt.Sprintf("k%02d", i), 1, i, 1000)
		}
		return c.Stats()
	}
	if st := fill(New(8, 0)); st.Entries != 8 || st.Evictions != 56 {
		t.Errorf("entry bound 8: %d entries, %d evictions; want 8, 56", st.Entries, st.Evictions)
	}
	const charged int64 = 1000 + int64(len("k00")) + entryOverhead
	if st := fill(New(0, 10*charged)); st.Entries != 10 || st.Bytes != 10*charged || st.Evictions != 54 {
		t.Errorf("byte bound of 10 entries: %d entries, %d bytes, %d evictions; want 10, %d, 54",
			st.Entries, st.Bytes, st.Evictions, 10*charged)
	}
	if st := fill(New(0, 10*charged-1)); st.Entries != 9 {
		t.Errorf("byte bound one short of 10 entries: %d entries, want 9", st.Entries)
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	c.Put("a", 1, "v", 0)
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache reported state")
	}
	c.Purge()
}

func TestPurge(t *testing.T) {
	c := New(64, 0)
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("k%d", i), 1, i, 8)
	}
	c.Purge()
	if n := c.Len(); n != 0 {
		t.Fatalf("Len after Purge = %d, want 0", n)
	}
	if st := c.Stats(); st.Bytes != 0 {
		t.Fatalf("Bytes after Purge = %d, want 0", st.Bytes)
	}
}

// TestConcurrentHammer exercises every operation from many goroutines;
// its value is under -race, plus the invariant that a hit at epoch e
// only ever sees a value stored at epoch e.
func TestConcurrentHammer(t *testing.T) {
	c := New(128, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", i%97)
				epoch := uint64(i % 3)
				if v, ok := c.Get(key, epoch); ok {
					if v.(uint64) != epoch {
						t.Errorf("hit at epoch %d returned value stored at epoch %v", epoch, v)
						return
					}
				} else {
					c.Put(key, epoch, epoch, 16)
				}
				if i%501 == 0 {
					c.Stats()
					c.Len()
				}
				if g == 0 && i%1999 == 0 {
					c.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
}
