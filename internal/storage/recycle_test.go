package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"
)

// stampPage fills buf with content only page id has: the ID, a body
// derived from it and version, and the body's checksum up front.
func stampPage(buf []byte, id PageID, version byte) {
	for i := 8; i < PageSize; i++ {
		buf[i] = byte(int(id)*31+i) ^ version
	}
	binary.LittleEndian.PutUint32(buf[4:8], uint32(id))
	binary.LittleEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[8:PageSize]))
}

// checkStamp reports whether page holds exactly stampPage(id, version).
func checkStamp(page []byte, id PageID, version byte) error {
	var want [PageSize]byte
	stampPage(want[:], id, version)
	if got := PageID(binary.LittleEndian.Uint32(page[4:8])); got != id {
		return fmt.Errorf("asked for page %d, frame holds page %d", id, got)
	}
	if string(page[:PageSize]) != string(want[:]) {
		return fmt.Errorf("page %d: content differs from its stamp (checksum %08x, want %08x)",
			id, binary.LittleEndian.Uint32(page[0:4]), binary.LittleEndian.Uint32(want[0:4]))
	}
	return nil
}

// stampedPool returns a pool of the given capacity over n stamped pages
// (version 0), all flushed and none cached.
func stampedPool(t *testing.T, capacity, n int) (*FaultInjector, *BufferPool, []PageID) {
	t.Helper()
	fi, bp := newFaultyPool(t, capacity)
	ids := make([]PageID, n)
	var buf [PageSize]byte
	for i := range ids {
		id, err := bp.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		stampPage(buf[:], id, 0)
		if err := putPage(bp, id, buf[:]); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := bp.DropCache(); err != nil {
		t.Fatal(err)
	}
	return fi, bp, ids
}

func viewStamp(bp *BufferPool, id PageID, version byte) error {
	_, err := bp.View([]PageID{id}, func(_ int, page []byte) error { return checkStamp(page, id, version) })
	return err
}

// statsSince returns the pool counters accumulated since base.
func statsSince(bp *BufferPool, base PoolStats) PoolStats {
	s := bp.Stats()
	return PoolStats{
		Hits:      s.Hits - base.Hits,
		Misses:    s.Misses - base.Misses,
		Evictions: s.Evictions - base.Evictions,
		Flushes:   s.Flushes - base.Flushes,
	}
}

// TestPoolRecyclesVictimFrameAcrossReadFaults drives the miss that
// reuses the LRU victim's frame into a failing read — with a clean and
// with a dirty victim — and checks the pool stays consistent: the victim
// is gone (flushed first when dirty), nothing is installed, the error
// surfaces, and every page read afterwards holds its own bytes. A
// transient fault then fails one read; once it heals, the page is read
// again into a recycled frame, which must end up holding it in full.
func TestPoolRecyclesVictimFrameAcrossReadFaults(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		name := "clean-victim"
		if dirty {
			name = "dirty-victim"
		}
		t.Run(name, func(t *testing.T) {
			fi, bp, ids := stampedPool(t, 2, 4)
			a, b, c, d := ids[0], ids[1], ids[2], ids[3]
			var aVersion byte
			if dirty {
				aVersion = 1
				var buf [PageSize]byte
				stampPage(buf[:], a, aVersion)
				if err := putPage(bp, a, buf[:]); err != nil {
					t.Fatal(err)
				}
			} else if err := viewStamp(bp, a, 0); err != nil {
				t.Fatal(err)
			}
			if err := viewStamp(bp, b, 0); err != nil { // a is now the LRU victim
				t.Fatal(err)
			}
			base := bp.Stats()

			// The pool is full: the miss on c evicts a, then the read fails.
			fi.Inject(Fault{Op: OpRead, Kind: Permanent, Page: c, Times: 1})
			if err := viewStamp(bp, c, 0); !errors.Is(err, ErrPermanent) {
				t.Fatalf("View(c) under a permanent read fault = %v, want ErrPermanent", err)
			}
			want := PoolStats{Misses: 1, Evictions: 1}
			if dirty {
				want.Flushes = 1
			}
			if got := statsSince(bp, base); got != want {
				t.Errorf("after the failed read: stats %+v, want %+v", got, want)
			}
			if n := cachedPages(bp); n != 1 {
				t.Errorf("after the failed read: %d frames cached, want 1 (victim gone, nothing installed)", n)
			}

			// a comes back from disk (with the flushed update when it was
			// dirty), b is still cached, and c now reads — into a's frame.
			if err := viewStamp(bp, a, aVersion); err != nil {
				t.Errorf("victim re-read: %v", err)
			}
			if err := viewStamp(bp, b, 0); err != nil {
				t.Errorf("survivor: %v", err)
			}
			if err := viewStamp(bp, c, 0); err != nil {
				t.Errorf("retry of the failed page: %v", err)
			}
			want = PoolStats{Hits: 1, Misses: 3, Evictions: 2, Flushes: want.Flushes}
			if got := statsSince(bp, base); got != want {
				t.Errorf("after the re-reads: stats %+v, want %+v", got, want)
			}
			if n := cachedPages(bp); n != 2 {
				t.Errorf("%d frames cached, want 2", n)
			}

			// One transient failure: the miss on d evicts b and fails,
			// installing nothing. b comes back into a fresh frame, filling
			// the pool, and the healed read of d then lands in c's old
			// frame and must not show a byte of c.
			fi.Inject(Fault{Op: OpRead, Kind: Transient, Page: d, Times: 1})
			if err := viewStamp(bp, d, 0); !errors.Is(err, ErrTransient) {
				t.Fatalf("View(d) under a transient read fault = %v, want ErrTransient", err)
			}
			if err := viewStamp(bp, b, 0); err != nil {
				t.Errorf("evicted page re-read: %v", err)
			}
			if err := viewStamp(bp, d, 0); err != nil {
				t.Errorf("healed read into the recycled frame: %v", err)
			}
			if err := viewStamp(bp, c, 0); err != nil {
				t.Errorf("evicted page re-read: %v", err)
			}

			if err := bp.DropCache(); err != nil {
				t.Fatalf("DropCache: %v", err)
			}
			if n := cachedPages(bp); n != 0 {
				t.Errorf("%d frames cached after DropCache", n)
			}
			if err := viewStamp(bp, a, aVersion); err != nil {
				t.Errorf("after DropCache: %v", err)
			}
			if err := bp.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := viewStamp(bp, a, aVersion); !errors.Is(err, ErrClosed) {
				t.Errorf("View after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestPoolDirtyVictimFlushFailureKeepsVictim: when the victim's flush
// fails the miss changes nothing — the dirty frame stays cached, so its
// bytes are not lost.
func TestPoolDirtyVictimFlushFailureKeepsVictim(t *testing.T) {
	fi, bp, ids := stampedPool(t, 1, 2)
	var buf [PageSize]byte
	stampPage(buf[:], ids[0], 1)
	if err := putPage(bp, ids[0], buf[:]); err != nil {
		t.Fatal(err)
	}
	fi.Inject(Fault{Op: OpWrite, Kind: Permanent, Page: ids[0], Times: 1})
	if err := viewStamp(bp, ids[1], 0); !errors.Is(err, ErrPermanent) {
		t.Fatalf("miss behind a failing flush = %v, want ErrPermanent", err)
	}
	if n := cachedPages(bp); n != 1 {
		t.Fatalf("%d frames cached, want the dirty victim still there", n)
	}
	if err := viewStamp(bp, ids[0], 1); err != nil {
		t.Errorf("dirty victim after the failed flush: %v", err)
	}
	if err := viewStamp(bp, ids[1], 0); err != nil {
		t.Errorf("second attempt: %v", err)
	}
	if err := viewStamp(bp, ids[0], 1); err != nil {
		t.Errorf("flushed update: %v", err)
	}
}

// TestPoolRecycledFramesUnderConcurrentReaders has four readers fault 64
// pages through a 4-frame pool, so nearly every access recycles a frame
// another reader used a moment ago; every View must see the checksum of
// the page it asked for, and the Reads the Views return must sum to the
// pool's own counts. Runs under -race via make check.
func TestPoolRecycledFramesUnderConcurrentReaders(t *testing.T) {
	_, bp, ids := stampedPool(t, 4, 64)
	base := bp.Stats()
	var wg sync.WaitGroup
	reads := make([]Reads, 4)
	for r := range reads {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 2000; i++ {
				id := ids[rng.Intn(len(ids))]
				n, err := bp.View([]PageID{id}, func(_ int, page []byte) error { return checkStamp(page, id, 0) })
				if err != nil {
					t.Errorf("reader %d, access %d: %v", r, i, err)
					return
				}
				reads[r] = reads[r].Add(n)
			}
		}(r)
	}
	wg.Wait()
	st := statsSince(bp, base)
	if st.Hits+st.Misses != 4*2000 || st.Evictions == 0 {
		t.Errorf("stats %+v: want 8000 accesses and evictions", st)
	}
	var sum Reads
	for _, n := range reads {
		sum = sum.Add(n)
	}
	if sum != (Reads{Pages: int(st.Hits + st.Misses), Misses: int(st.Misses)}) {
		t.Errorf("the Views returned %+v, want the pool's %d accesses and %d misses", sum, st.Hits+st.Misses, st.Misses)
	}
	if n := cachedPages(bp); n != 4 {
		t.Errorf("%d frames cached, want 4", n)
	}
}

// TestPoolMissAtCapacityAllocatesNoFrame: once the pool is full, a miss
// reads into the victim's frame, so a pass of misses allocates far less
// than one 8 KiB frame each.
func TestPoolMissAtCapacityAllocatesNoFrame(t *testing.T) {
	_, bp, ids := stampedPool(t, 2, 6)
	sweep := func() {
		for _, id := range ids {
			if _, err := bp.View([]PageID{id}, func(int, []byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep() // fill the pool
	before := bp.Stats().Misses
	perSweep := testing.AllocsPerRun(20, sweep)
	if misses := bp.Stats().Misses - before; misses != 21*uint64(len(ids)) {
		t.Fatalf("%d misses over 21 sweeps of %d pages; want every access to miss", misses, len(ids))
	}
	if perSweep > 2 {
		t.Errorf("a sweep of %d misses allocates %v objects; want no frame (and no list element) per miss", len(ids), perSweep)
	}
}
