package cache

import (
	"fmt"
	"sync"
	"testing"
)

// keep is a renew func that re-confirms the stale value as it is.
func keep(stale any) (any, int, bool) { return stale, 0, true }

// refuse is a renew func that refuses every stale value.
func refuse(any) (any, int, bool) { return nil, 0, false }

func TestGetPut(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Renew("a", 1, keep); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1, "va", 0)
	v, ok := c.Renew("a", 1, refuse)
	if !ok || v.(string) != "va" {
		t.Fatalf("Renew(a,1) = %v, %v; want va, true", v, ok)
	}
	// Replacement under the same key.
	c.Put("a", 1, "vb", 0)
	if v, _ := c.Renew("a", 1, refuse); v.(string) != "vb" {
		t.Fatalf("after replace: got %v, want vb", v)
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("Entries = %d, want 1", n)
	}
}

func TestEpochMismatchInvalidates(t *testing.T) {
	c := New(1 << 20)
	c.Put("a", 1, "va", 0)
	if _, ok := c.Renew("a", 2, refuse); ok {
		t.Fatal("a refused stale entry was served")
	}
	// The stale entry must be gone: a lookup at its old epoch must not
	// find it, and the counters must record the invalidation.
	if _, ok := c.Renew("a", 1, keep); ok {
		t.Fatal("stale entry survived its refused renewal")
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
	c := New(1 << 20)
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
	if v, ok := c.Renew("a", 2, refuse); !ok || v.(string) != "va2" {
		t.Fatalf("re-confirmed value not stored at the new epoch: %v, %v", v, ok)
	}
	c.Put("a", 3, "va", 0)
	if _, ok := c.Renew("a", 4, renewTo(nil, false)); ok || calls != 2 {
		t.Fatalf("refusing Renew: ok=%v after %d renew calls", ok, calls)
	}
	if c.Stats().Entries != 0 {
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
	c := New(1 << 20)
	c.Put("a", 2, "new", 0)
	c.Put("a", 1, "old", 0)
	if v, ok := c.Renew("a", 2, refuse); !ok || v.(string) != "new" {
		t.Fatalf("Renew(a,2) = %v, %v; want new, true", v, ok)
	}
}

func TestByteBudgetEvicts(t *testing.T) {
	// Every entry charges size + key + overhead, far over the whole
	// budget, so only the most recent one stays: the eviction loop
	// never drops the entry just inserted.
	c := New(32)
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("k%d", i), 1, i, 1024)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 63 {
		t.Fatalf("Entries/Evictions = %d/%d, want 1/63", st.Entries, st.Evictions)
	}
	if _, ok := c.Renew("k63", 1, refuse); !ok {
		t.Fatal("the entry just inserted was evicted")
	}

	// Eviction follows recency, not insertion: with room for two, a
	// lookup makes k2 the least recently used, and it goes first.
	c = New(2 * (1000 + int64(len("k1")) + entryOverhead))
	c.Put("k1", 1, 1, 1000)
	c.Put("k2", 1, 2, 1000)
	c.Renew("k1", 1, refuse)
	c.Put("k3", 1, 3, 1000)
	if _, ok := c.Renew("k2", 1, refuse); ok {
		t.Fatal("LRU entry survived an over-budget insert")
	}
	for key, want := range map[string]int{"k1": 1, "k3": 3} {
		if v, ok := c.Renew(key, 1, refuse); !ok || v.(int) != want {
			t.Fatalf("%s was evicted instead of the LRU entry", key)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

// TestBoundsAreExact: the byte budget is the cache's, not a slice of it
// per hash bucket — the cache fills to exactly its budget and evicts one
// entry per insert from there on.
func TestBoundsAreExact(t *testing.T) {
	fill := func(c *Cache) Stats {
		for i := 0; i < 64; i++ {
			c.Put(fmt.Sprintf("k%02d", i), 1, i, 1000)
		}
		return c.Stats()
	}
	const charged int64 = 1000 + int64(len("k00")) + entryOverhead
	if st := fill(New(10 * charged)); st.Entries != 10 || st.Bytes != 10*charged || st.Evictions != 54 {
		t.Errorf("byte bound of 10 entries: %d entries, %d bytes, %d evictions; want 10, %d, 54",
			st.Entries, st.Bytes, st.Evictions, 10*charged)
	}
	if st := fill(New(10*charged - 1)); st.Entries != 9 {
		t.Errorf("byte bound one short of 10 entries: %d entries, want 9", st.Entries)
	}
}

func TestPurge(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("k%d", i), 1, i, 8)
	}
	c.Purge()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Entries/Bytes after Purge = %d/%d, want 0/0", st.Entries, st.Bytes)
	}
}

// TestConcurrentHammer exercises every operation from many goroutines;
// its value is under -race, plus the invariant that a hit at epoch e
// only ever sees a value stored at epoch e or re-confirmed at it.
func TestConcurrentHammer(t *testing.T) {
	c := New(128 * (16 + 3 + entryOverhead))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", i%97)
				epoch := uint64(i % 3)
				// Re-confirm every other stale value, as the value of the
				// epoch asked for; refuse the rest.
				renew := func(any) (any, int, bool) { return epoch, 16, i%2 == 0 }
				if v, ok := c.Renew(key, epoch, renew); ok {
					if v.(uint64) != epoch {
						t.Errorf("hit at epoch %d returned value stored at epoch %v", epoch, v)
						return
					}
				} else {
					c.Put(key, epoch, epoch, 16)
				}
				if i%501 == 0 {
					c.Stats()
				}
				if g == 0 && i%1999 == 0 {
					c.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
}
