package storage

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func newTestFile(t *testing.T) *PageFile {
	t.Helper()
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "test.pages"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf
}

// getPage copies page id into buf through the pool's one read.
func getPage(bp *BufferPool, id PageID, buf []byte) error {
	_, err := bp.View([]PageID{id}, func(_ int, p []byte) error {
		copy(buf, p)
		return nil
	})
	return err
}

// putPage overwrites page id with buf through the pool.
func putPage(bp *BufferPool, id PageID, buf []byte) error {
	return bp.Update(id, func(p []byte) error {
		copy(p, buf)
		return nil
	})
}

// cachedPages returns the number of frames the pool holds.
func cachedPages(bp *BufferPool) int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.lru.Len()
}

// readOne reads the record at rid alone.
func readOne(rs *RecordStore, rid RID) ([]byte, error) {
	recs, _, err := rs.Read(context.Background(), []RID{rid})
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

func TestPageFileAllocReadWrite(t *testing.T) {
	pf := newTestFile(t)
	id, err := pf.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first page id = %d, want 1", id)
	}
	var buf [PageSize]byte
	copy(buf[:], "hello pages")
	if err := pf.Write(id, buf[:]); err != nil {
		t.Fatal(err)
	}
	var back [PageSize]byte
	if err := pf.Read(id, back[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:], back[:]) {
		t.Error("page content mismatch")
	}
	if pf.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", pf.NumPages())
	}
	if pf.Size() != 2*PageSize {
		t.Errorf("Size = %d", pf.Size())
	}
}

func TestPageFileBounds(t *testing.T) {
	pf := newTestFile(t)
	var buf [PageSize]byte
	if err := pf.Read(0, buf[:]); err == nil {
		t.Error("reading header page should fail")
	}
	if err := pf.Read(5, buf[:]); err == nil {
		t.Error("reading unallocated page should fail")
	}
	if err := pf.Write(5, buf[:]); err == nil {
		t.Error("writing unallocated page should fail")
	}
}

func TestPageFileReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "re.pages")
	pf, err := CreatePageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := pf.Alloc()
	var buf [PageSize]byte
	copy(buf[:], "persisted")
	pf.Write(id, buf[:])
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Errorf("second Close should be nil, got %v", err)
	}
	pf2, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	if pf2.NumPages() != 2 {
		t.Errorf("reopened NumPages = %d", pf2.NumPages())
	}
	var back [PageSize]byte
	if err := pf2.Read(id, back[:]); err != nil {
		t.Fatal(err)
	}
	if string(back[:9]) != "persisted" {
		t.Error("content lost after reopen")
	}
}

func TestOpenPageFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, bytes.Repeat([]byte{7}, PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPageFile(path); err == nil {
		t.Error("garbage file accepted")
	}
	if _, err := OpenPageFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestPageFileClosedOps(t *testing.T) {
	pf := newTestFile(t)
	pf.Close()
	if _, err := pf.Alloc(); err != ErrClosed {
		t.Errorf("Alloc after close = %v, want ErrClosed", err)
	}
	var buf [PageSize]byte
	if err := pf.Read(1, buf[:]); err != ErrClosed {
		t.Errorf("Read after close = %v", err)
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 4)
	id, err := bp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	var buf [PageSize]byte
	copy(buf[:], "cached")
	if err := putPage(bp, id, buf[:]); err != nil {
		t.Fatal(err)
	}
	var back [PageSize]byte
	if err := getPage(bp, id, back[:]); err != nil {
		t.Fatal(err)
	}
	if string(back[:6]) != "cached" {
		t.Error("cached content wrong")
	}
	st := bp.Stats()
	if st.Hits == 0 {
		t.Error("expected cache hits")
	}
	if st.Misses != 0 {
		t.Errorf("misses = %d, want 0 (page was cached by Alloc)", st.Misses)
	}
}

func TestBufferPoolEvictionWritesDirty(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := bp.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		var buf [PageSize]byte
		buf[0] = byte(i + 1)
		if err := putPage(bp, id, buf[:]); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if cachedPages(bp) > 2 {
		t.Errorf("pool over capacity: %d", cachedPages(bp))
	}
	if bp.Stats().Evictions == 0 {
		t.Error("expected evictions")
	}
	// Every page must read back its content (dirty evictions flushed).
	for i, id := range ids {
		var back [PageSize]byte
		if err := getPage(bp, id, back[:]); err != nil {
			t.Fatal(err)
		}
		if back[0] != byte(i+1) {
			t.Errorf("page %d content = %d, want %d", id, back[0], i+1)
		}
	}
}

func TestBufferPoolDropCache(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 8)
	id, _ := bp.Alloc()
	var buf [PageSize]byte
	buf[0] = 42
	putPage(bp, id, buf[:])
	if err := bp.DropCache(); err != nil {
		t.Fatal(err)
	}
	if cachedPages(bp) != 0 {
		t.Errorf("pool not empty after DropCache: %d", cachedPages(bp))
	}
	before := bp.Stats()
	var back [PageSize]byte
	if err := getPage(bp, id, back[:]); err != nil {
		t.Fatal(err)
	}
	if back[0] != 42 {
		t.Error("dirty page lost by DropCache")
	}
	if st := bp.Stats(); st.Misses-before.Misses != 1 || st.Hits != before.Hits {
		t.Errorf("cold read stats = %+v after %+v, want 1 miss", st, before)
	}
}

func TestBufferPoolFlushPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flush.pages")
	pf, err := CreatePageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(pf, 8)
	id, _ := bp.Alloc()
	var buf [PageSize]byte
	buf[7] = 99
	putPage(bp, id, buf[:])
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	pf.Close()
	pf2, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	var back [PageSize]byte
	if err := pf2.Read(id, back[:]); err != nil {
		t.Fatal(err)
	}
	if back[7] != 99 {
		t.Error("flushed content not on disk")
	}
}

func TestBufferPoolConcurrentAccess(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 4)
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, _ := bp.Alloc()
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf [PageSize]byte
			for i := 0; i < 50; i++ {
				id := ids[(w+i)%len(ids)]
				if err := getPage(bp, id, buf[:]); err != nil {
					t.Errorf("View: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestBufferPoolClose(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 4)
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bp.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	var buf [PageSize]byte
	if err := getPage(bp, 1, buf[:]); err != ErrClosed {
		t.Errorf("View after close = %v", err)
	}
}

func TestRecordStoreSmallRecords(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 16)
	rs := NewRecordStore(bp)
	var rids []RID
	var want [][]byte
	for i := 0; i < 100; i++ {
		data := bytes.Repeat([]byte{byte(i)}, i+1)
		rid, err := rs.Append(data)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		want = append(want, data)
	}
	for i, rid := range rids {
		got, err := readOne(rs, rid)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("record %d mismatch: %d bytes vs %d", i, len(got), len(want[i]))
		}
	}
}

// TestRecordStoreMaxRecord: a record of MaxRecord bytes, appended after
// a small one, fills a fresh page of its own and reads back whole; one
// byte more is refused, and the refusal allocates no page.
func TestRecordStoreMaxRecord(t *testing.T) {
	pf := newTestFile(t)
	rs := NewRecordStore(NewBufferPool(pf, 4))
	small, err := rs.Append([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xa5}, MaxRecord)
	rid, err := rs.Append(big)
	if err != nil {
		t.Fatalf("a record of MaxRecord = %d bytes: %v", MaxRecord, err)
	}
	if rid.Page == small.Page || rid.Slot != 0 {
		t.Errorf("the MaxRecord-byte record landed at %v, want slot 0 of a page after %v's", rid, small)
	}
	if got, err := readOne(rs, rid); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("read back %d bytes, %v; want the %d appended", len(got), err, len(big))
	}
	size := pf.Size()
	if _, err := rs.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatalf("a record of MaxRecord+1 = %d bytes was appended", MaxRecord+1)
	}
	if pf.Size() != size {
		t.Errorf("the refused append grew the file from %d to %d bytes", size, pf.Size())
	}
}

func TestRecordStoreEmptyRecord(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 4)
	rs := NewRecordStore(bp)
	rid, err := rs.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readOne(rs, rid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty record read %d bytes", len(got))
	}
}

func TestRecordStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rs.pages")
	pf, err := CreatePageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(pf, 8)
	rs := NewRecordStore(bp)
	rid, err := rs.Append([]byte("durable record"))
	if err != nil {
		t.Fatal(err)
	}
	bp.Flush()
	pf.Close()

	pf2, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	rs2 := NewRecordStore(NewBufferPool(pf2, 8))
	got, err := readOne(rs2, rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable record" {
		t.Errorf("reopened record = %q", got)
	}
	// New appends after reopen don't clobber old data.
	rid2, err := rs2.Append([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := readOne(rs2, rid); string(got) != "durable record" {
		t.Error("old record damaged by post-reopen append")
	}
	if got, _ := readOne(rs2, rid2); string(got) != "second" {
		t.Error("new record wrong")
	}
}

func TestRecordStoreRejectsCorruptRID(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 4)
	rs := NewRecordStore(bp)
	rid, _ := rs.Append([]byte("x"))
	if _, err := readOne(rs, RID{Page: rid.Page, Slot: 99}); err == nil {
		t.Error("out-of-range slot accepted")
	}
}

func TestRIDPackUnpack(t *testing.T) {
	f := func(page uint32, slot uint16) bool {
		r := RID{Page: PageID(page & 0xffffff), Slot: slot}
		return UnpackRID(r.Pack()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if (RID{Page: 3, Slot: 4}).String() != "rid(3:4)" {
		t.Error("String wrong")
	}
}

func TestRecordStoreRoundTripProperty(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 32)
	rs := NewRecordStore(bp)
	f := func(data []byte) bool {
		rid, err := rs.Append(data)
		if err != nil {
			return false
		}
		got, err := readOne(rs, rid)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPoolStatsHitRate(t *testing.T) {
	if (PoolStats{}).HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
	if (PoolStats{Hits: 3, Misses: 1}).HitRate() != 0.75 {
		t.Error("hit rate wrong")
	}
}

// TestBufferPoolStatsSnapshotDuringTraffic hammers the pool from reader
// goroutines while another goroutine snapshots Stats continuously. The
// counters are atomics, so under -race this proves stats reads need no
// pool lock, and the final snapshot must balance: every page view is either a
// hit or a miss.
func TestBufferPoolStatsSnapshotDuringTraffic(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 4)
	var ids []PageID
	for i := 0; i < 16; i++ {
		id, _ := bp.Alloc()
		ids = append(ids, id)
	}
	const workers, iters = 8, 200
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := bp.Stats()
				if st.Misses > st.Hits+st.Misses { // impossible; keeps st used
					t.Error("corrupt snapshot")
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf [PageSize]byte
			for i := 0; i < iters; i++ {
				if err := getPage(bp, ids[(w*7+i)%len(ids)], buf[:]); err != nil {
					t.Errorf("View: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()
	st := bp.Stats()
	// Alloc installs frames without counting hits or misses, so traffic
	// is exactly the workers' page views.
	if st.Hits+st.Misses != workers*iters {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d",
			st.Hits, st.Misses, st.Hits+st.Misses, workers*iters)
	}
}
