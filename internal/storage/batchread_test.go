package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"
)

// batchFixture appends n small records and returns the store with
// everything needed to read back.
func batchFixture(t *testing.T, n int) (*RecordStore, []RID, [][]byte) {
	t.Helper()
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 64)
	rs := NewRecordStore(bp)
	var rids []RID
	var want [][]byte
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, (i%97)+1)
		rid, err := rs.Append(data)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		want = append(want, data)
	}
	return rs, rids, want
}

func TestReadBatchTallyMatchesIndividualReads(t *testing.T) {
	rs, rids, want := batchFixture(t, 200)
	// Shuffle the request order deterministically so the page sort in
	// Read actually has work to do.
	req := make([]RID, len(rids))
	wantShuf := make([][]byte, len(rids))
	for i := range rids {
		j := (i*61 + 17) % len(rids)
		req[i] = rids[j]
		wantShuf[i] = want[j]
	}
	got, n, err := rs.Read(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if n.Pages <= 0 {
		t.Errorf("read visited %d pages, want > 0", n.Pages)
	}
	for i := range req {
		if got[i] == nil {
			t.Fatalf("record %d: nil result", i)
		}
		if !bytes.Equal(got[i], wantShuf[i]) {
			t.Errorf("record %d mismatch: %d bytes vs %d", i, len(got[i]), len(wantShuf[i]))
		}
	}
}

func TestReadBatchTallyEmptyAndDuplicates(t *testing.T) {
	rs, rids, want := batchFixture(t, 10)
	got, _, err := rs.Read(context.Background(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: got %d results, err %v", len(got), err)
	}
	// Duplicate RIDs each get an independent copy.
	last := len(rids) - 1
	req := []RID{rids[3], rids[3], rids[7], rids[last], rids[last]}
	got, _, err = rs.Read(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range []int{3, 3, 7, last, last} {
		if !bytes.Equal(got[i], want[j]) {
			t.Errorf("entry %d (record %d) mismatch", i, j)
		}
	}
	got[0][0] ^= 0xff
	got[3][0] ^= 0xff
	if got[0][0] == got[1][0] || got[3][0] == got[4][0] {
		t.Error("duplicate results share backing storage")
	}
}

func TestReadBatchTallyEmptyRecordIsNonNil(t *testing.T) {
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 8)
	rs := NewRecordStore(bp)
	rid, err := rs.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rs.Read(context.Background(), []RID{rid})
	if err != nil {
		t.Fatal(err)
	}
	// nil means "not read"; a zero-length record must come back non-nil.
	if got[0] == nil {
		t.Fatal("empty record returned nil")
	}
	if len(got[0]) != 0 {
		t.Fatalf("empty record returned %d bytes", len(got[0]))
	}
}

func TestReadBatchTallyTallyAgreesWithSerialReads(t *testing.T) {
	rs, rids, _ := batchFixture(t, 150)

	var serial Reads
	for _, rid := range rids {
		_, n, err := rs.Read(context.Background(), []RID{rid})
		if err != nil {
			t.Fatal(err)
		}
		serial = serial.Add(n)
	}

	if err := rs.pool.DropCache(); err != nil {
		t.Fatal(err)
	}
	base := rs.pool.Stats()
	got, batch, err := rs.Read(context.Background(), rids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] == nil {
			t.Fatalf("record %d not read", i)
		}
	}
	// The batch visits each page once; one record at a time
	// revisits a page for every record on it. Batched page accesses must
	// therefore be strictly fewer while still being counted exactly: the
	// read returns every access and miss the pool saw, and nothing else.
	if batch.Pages >= serial.Pages {
		t.Errorf("batched page reads %d not below serial %d", batch.Pages, serial.Pages)
	}
	st := rs.pool.Stats()
	if want := (Reads{Pages: int(st.Hits + st.Misses - base.Hits - base.Misses), Misses: int(st.Misses - base.Misses)}); batch != want || batch.Misses == 0 {
		t.Errorf("cold read returned %+v, want the pool's %+v with misses", batch, want)
	}
}

// cancelAfter is a context whose Err turns context.Canceled from its
// n+1-th call on, so a test can cancel a read at an exact point.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestReadBatchTallyCancelledContext(t *testing.T) {
	rs, rids, want := batchFixture(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, _, err := rs.Read(ctx, rids)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range got {
		if got[i] != nil {
			t.Fatalf("record %d materialised despite pre-cancelled context", i)
		}
	}

	// Cancelled after the first page: the records on it are read, every
	// other one is left nil.
	first := rids[0].Page
	if rids[len(rids)-1].Page == first {
		t.Fatal("fixture fits one page")
	}
	got, _, err = rs.Read(&cancelAfter{context.Background(), 2}, rids)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, rid := range rids {
		if rid.Page == first && !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d on the first page not read before the cancellation", i)
		}
		if rid.Page != first && got[i] != nil {
			t.Fatalf("record %d on page %d read after the cancellation", i, rid.Page)
		}
	}
}

func TestReadBatchTallyRejectsCorruptRID(t *testing.T) {
	rs, rids, _ := batchFixture(t, 5)
	bad := append([]RID{}, rids...)
	bad = append(bad, RID{Page: rids[0].Page, Slot: 999})
	_, _, err := rs.Read(context.Background(), bad)
	var re *RecordError
	if !errors.As(err, &re) || re.Index != len(bad)-1 {
		t.Fatalf("corrupt RID: err = %v, want a *RecordError naming record %d", err, len(bad)-1)
	}
}

// memPages is a PageIO over memory, so a fuzz input costs no file.
type memPages struct{ pages [][PageSize]byte }

func (m *memPages) Alloc() (PageID, error) {
	m.pages = append(m.pages, [PageSize]byte{})
	return PageID(len(m.pages)), nil
}

func (m *memPages) Read(id PageID, buf []byte) error {
	if id == 0 || int(id) > len(m.pages) {
		return fmt.Errorf("page %d beyond end (%d pages)", id, len(m.pages))
	}
	copy(buf, m.pages[id-1][:])
	return nil
}

func (m *memPages) Write(id PageID, buf []byte) error {
	if id == 0 || int(id) > len(m.pages) {
		return fmt.Errorf("page %d beyond end (%d pages)", id, len(m.pages))
	}
	copy(m.pages[id-1][:], buf)
	return nil
}

func (m *memPages) Sync() error { return nil }

// craftedStore returns a store whose page 1 holds page (truncated or
// zero-padded to PageSize), written with pool.Update, followed by
// well-formed records on pages of their own: small ones, an empty one
// and one of MaxRecord bytes. It returns those records' RIDs and
// contents.
func craftedStore(t testing.TB, page []byte) (*RecordStore, []RID, [][]byte) {
	t.Helper()
	bp := NewBufferPool(&memPages{}, 64)
	id, err := bp.Alloc()
	if err != nil || id != 1 {
		t.Fatalf("first page = %d, %v; want 1", id, err)
	}
	if err := bp.Update(id, func(p []byte) error {
		copy(p, page)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rs := NewRecordStore(bp)
	want := [][]byte{nil, bytes.Repeat([]byte{0xb1}, MaxRecord)}
	for i := 0; i < 30; i++ {
		want = append(want, bytes.Repeat([]byte{byte(i)}, 1+i*37))
	}
	rids := make([]RID, len(want))
	for i, data := range want {
		if rids[i], err = rs.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	want[0] = []byte{} // read back as a non-nil empty record
	return rs, rids, want
}

// pageWithRecord returns a page holding one record, "page", in slot 0,
// under the given slot count.
func pageWithRecord(slots uint16) []byte {
	p := make([]byte, PageSize)
	off := uint16(PageSize - 4)
	setSlotCount(p, slots)
	setFreeEnd(p, off)
	setSlotEntry(p, 0, off, 4)
	copy(p[off:], "page")
	return p
}

// Two crafted pages: a well-formed one, and one on-disk defect, a slot
// count (0xffff) that admits slots whose table entries lie past the
// page.
var (
	oneRecordPage     = pageWithRecord(1)
	wideSlotCountPage = pageWithRecord(0xffff)
)

// readWithin runs rs.Read, failing the test if it does not return within
// a few seconds.
func readWithin(t *testing.T, rs *RecordStore, rids []RID) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := rs.Read(context.Background(), rids)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Read did not return")
		return nil
	}
}

// TestReadFailsSlotPastThePage: a slot the slot count admits but whose
// table entry lies past the page fails its record instead of panicking.
func TestReadFailsSlotPastThePage(t *testing.T) {
	rs, rids, _ := craftedStore(t, wideSlotCountPage)
	if err := readWithin(t, rs, []RID{{Page: 1, Slot: 0}}); err != nil {
		t.Fatalf("slot 0 of the crafted page: %v", err)
	}
	err := readWithin(t, rs, append(rids, RID{Page: 1, Slot: 5000}))
	var re *RecordError
	if !errors.As(err, &re) || re.Index != len(rids) {
		t.Fatalf("slot 5000: err = %v, want a *RecordError naming record %d", err, len(rids))
	}
}

// FuzzRecordRead reads RIDs the input names (three bytes each: page,
// slot) from a store whose first page is the input's, beside the
// store's well-formed records. The read must not panic or hang; a
// failure must be a *RecordError; every read's Reads must count no
// more misses than pages, and a whole read exactly the distinct pages
// its RIDs name; and every well-formed record must round-trip,
// duplicates included, also through a read cancelled at an input-chosen
// point, which leaves an entry nil or whole.
func FuzzRecordRead(f *testing.F) {
	f.Add(oneRecordPage, []byte{1, 0, 0})
	f.Add(wideSlotCountPage, []byte{1, 0, 0, 1, 0x88, 0x13})
	f.Add([]byte{}, []byte{0, 0, 0, 9, 1, 0})
	f.Fuzz(func(t *testing.T, page, named []byte) {
		rs, rids, want := craftedStore(t, page)
		npages := len(rs.pool.file.(*memPages).pages)
		req := append(append([]RID{}, rids...), rids[1], rids[len(rids)-1])
		wantReq := append(append([][]byte{}, want...), want[1], want[len(want)-1])
		check := func(got [][]byte, nilOK bool) {
			t.Helper()
			for i, w := range wantReq {
				if !(nilOK && got[i] == nil) && !bytes.Equal(got[i], w) {
					t.Fatalf("record %d (%v): read %d bytes, want %d", i, req[i], len(got[i]), len(w))
				}
			}
		}
		checkReads := func(n Reads) {
			t.Helper()
			if n.Misses < 0 || n.Misses > n.Pages {
				t.Fatalf("read returned %+v: misses outside [0, pages]", n)
			}
		}
		checkWhole := func(n Reads, rids []RID) {
			t.Helper()
			named := map[PageID]bool{}
			for _, rid := range rids {
				named[rid.Page] = true
			}
			if n.Pages != len(named) {
				t.Fatalf("read visited %d pages, want the %d its RIDs name", n.Pages, len(named))
			}
		}
		got, n, err := rs.Read(context.Background(), req)
		if err != nil {
			t.Fatalf("well-formed records: %v", err)
		}
		check(got, false)
		checkReads(n)
		checkWhole(n, req)

		ctx := &cancelAfter{context.Background(), len(named) % 8}
		got, n, err = rs.Read(ctx, req)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled read: %v", err)
		}
		check(got, err != nil)
		checkReads(n)

		mixed := req
		for ; len(named) >= 3; named = named[3:] {
			mixed = append(mixed, RID{Page: PageID(int(named[0]) % (npages + 2)), Slot: binary.LittleEndian.Uint16(named[1:3])})
		}
		got, n, err = rs.Read(context.Background(), mixed)
		checkReads(n)
		if err != nil {
			var re *RecordError
			if !errors.As(err, &re) || got != nil {
				t.Fatalf("failed read: %v (results %v), want a *RecordError and no results", err, got != nil)
			}
			return
		}
		check(got, false)
		checkWhole(n, mixed)
		for i := len(req); i < len(mixed); i++ {
			if got[i] == nil {
				t.Fatalf("record %d (%v) left nil by a read that succeeded", i, mixed[i])
			}
		}
	})
}
