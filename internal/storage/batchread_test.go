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

// batchFixture appends n small records, runs of seven of which share
// prefixes, and returns the store with everything needed to read back.
func batchFixture(t *testing.T, n int) (*RecordStore, []uint32, [][]byte) {
	t.Helper()
	pf := newTestFile(t)
	bp := NewBufferPool(pf, 64)
	rs := NewRecordStore(bp, nil, 0)
	var rids []uint32
	var want [][]byte
	for i := 0; i < n; i++ {
		data := append(bytes.Repeat([]byte{byte(i/7 + 1)}, i%97), byte(i))
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
	req := make([]uint32, len(rids))
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
	// Duplicate IDs each get an independent copy.
	last := len(rids) - 1
	req := []uint32{rids[3], rids[3], rids[7], rids[last], rids[last]}
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
	rs := NewRecordStore(bp, nil, 0)
	rid, err := rs.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rs.Read(context.Background(), []uint32{rid})
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
		_, n, err := rs.Read(context.Background(), []uint32{rid})
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
	rs, rids, want := batchFixture(t, 2000)
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
	first, _ := locate(rs, rids[0])
	if last, _ := locate(rs, rids[len(rids)-1]); last == first {
		t.Fatal("fixture fits one page")
	}
	got, _, err = rs.Read(&cancelAfter{context.Background(), 2}, rids)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, rid := range rids {
		page, _ := locate(rs, rid)
		if page == first && !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d on the first page not read before the cancellation", i)
		}
		if page != first && got[i] != nil {
			t.Fatalf("record %d on page %d read after the cancellation", i, page)
		}
	}
}

func TestReadBatchTallyRejectsCorruptRID(t *testing.T) {
	rs, rids, _ := batchFixture(t, 5)
	bad := append(append([]uint32{}, rids...), 999)
	_, _, err := rs.Read(context.Background(), bad)
	var re *RecordError
	if !errors.As(err, &re) || re.Index != len(bad)-1 {
		t.Fatalf("ID past the records: err = %v, want a *RecordError naming record %d", err, len(bad)-1)
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

// craftedIDs is the number of IDs craftedStore's first page is the
// run of: IDs 0 to craftedIDs−1 name its slots, whatever it holds.
const craftedIDs = 64

// craftedStore returns a store whose page 1 holds page (truncated or
// zero-padded to PageSize), written with pool.Update and named by the
// run of IDs 0 to craftedIDs−1, followed by well-formed records on pages
// of their own: small ones sharing prefixes, an empty one and one of
// MaxRecord bytes. It returns those records' IDs and contents.
func craftedStore(t testing.TB, page []byte) (*RecordStore, []uint32, [][]byte) {
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
	rs := NewRecordStore(bp, []Run{{Page: 1, First: 0}}, craftedIDs)
	want := [][]byte{nil, bytes.Repeat([]byte{0xb1}, MaxRecord)}
	for i := 0; i < 30; i++ {
		want = append(want, append(bytes.Repeat([]byte{0xc0}, i*37), byte(i)))
	}
	ids := make([]uint32, len(want))
	for i, data := range want {
		if ids[i], err = rs.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	want[0] = []byte{} // read back as a non-nil empty record
	return rs, ids, want
}

// craftPage returns a page starting at ID first whose entries are the
// given bytes, each a shared count and the rest, taken as they are.
func craftPage(first uint32, entries ...[]byte) []byte {
	p := make([]byte, PageSize)
	binary.LittleEndian.PutUint16(p[0:2], uint16(len(entries)))
	binary.LittleEndian.PutUint32(p[2:6], first)
	at := pageHdrSize
	for i, e := range entries {
		at += copy(p[at:], e)
		setEntryEnd(p, i, at)
	}
	return p
}

func setEntryEnd(p []byte, slot, end int) {
	binary.LittleEndian.PutUint16(p[PageSize-endSize*(slot+1):], uint16(end))
}

// restartPage is a run of restartEvery+1 records, "r0" to "r16", the
// last of which, a restart, shares one byte with the one before.
func restartPage() []byte {
	entries := [][]byte{[]byte("\x00r0")}
	for i := 1; i < restartEvery; i++ {
		entries = append(entries, []byte(fmt.Sprintf("\x01%d", i)))
	}
	return craftPage(0, append(entries, []byte("\x0116"))...)
}

// The crafted pages: a well-formed one, and one per on-disk defect a
// read must fail on.
var (
	// Records "page" and "pager", the second front-coded.
	twoRecordPage = craftPage(0, []byte("\x00page"), []byte("\x04r"))
	// A record count (0xffff) whose end offsets would overrun the page.
	wideSlotCountPage = func() []byte {
		p := craftPage(0, []byte("\x00page"))
		binary.LittleEndian.PutUint16(p[0:2], 0xffff)
		return p
	}()
	// The second record shares 9 bytes of the 4-byte first.
	sharedTooLongPage = craftPage(0, []byte("\x00page"), []byte("\x09r"))
	// The second record ends before the first.
	endsDescendPage = func() []byte {
		p := craftPage(0, []byte("\x00page"), []byte("\x04r"))
		setEntryEnd(p, 1, pageHdrSize+2)
		return p
	}()
	// The second record ends inside the end offsets.
	endPastPagePage = func() []byte {
		p := craftPage(0, []byte("\x00page"), []byte("\x04r"))
		setEntryEnd(p, 1, PageSize-1)
		return p
	}()
	// The page says it starts at ID 5, where its run starts at 0.
	firstIDPage = craftPage(5, []byte("\x00page"))
	// Slot 16, a restart, shares a byte.
	restartSharesPage = restartPage()
)

// TestReadRejectsCorruptPages: each defect of a crafted page fails the
// read of the record it spoils with a *RecordError naming it, while the
// well-formed records before it read back.
func TestReadRejectsCorruptPages(t *testing.T) {
	for _, c := range []struct {
		name   string
		page   []byte
		good   map[uint32]string
		failed uint32
	}{
		{"slot-past-the-records", twoRecordPage, map[uint32]string{0: "page", 1: "pager"}, 2},
		{"count-overruns-the-page", wideSlotCountPage, nil, 0},
		{"shared-count-too-long", sharedTooLongPage, map[uint32]string{0: "page"}, 1},
		{"ends-descend", endsDescendPage, map[uint32]string{0: "page"}, 1},
		{"end-past-the-page", endPastPagePage, map[uint32]string{0: "page"}, 1},
		{"id-below-the-page", firstIDPage, nil, 0},
		{"restart-shares", restartSharesPage, map[uint32]string{0: "r0", 15: "r15"}, restartEvery},
	} {
		t.Run(c.name, func(t *testing.T) {
			rs, _, _ := craftedStore(t, c.page)
			for id, want := range c.good {
				if got, err := readWithin(t, rs, []uint32{id}); err != nil || string(got[0]) != want {
					t.Fatalf("ID %d read %q, %v; want %q", id, got, err, want)
				}
			}
			_, err := readWithin(t, rs, []uint32{c.failed})
			var re *RecordError
			if !errors.As(err, &re) || re.ID != c.failed {
				t.Fatalf("ID %d: err = %v, want a *RecordError naming it", c.failed, err)
			}
		})
	}
}

// readWithin runs rs.Read, failing the test if it does not return within
// a few seconds.
func readWithin(t *testing.T, rs *RecordStore, ids []uint32) ([][]byte, error) {
	t.Helper()
	type result struct {
		recs [][]byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		recs, _, err := rs.Read(context.Background(), ids)
		done <- result{recs, err}
	}()
	select {
	case r := <-done:
		return r.recs, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("Read did not return")
		return nil, nil
	}
}

// TestReadFailsSlotPastThePage: an ID whose slot the page's record count
// admits, but whose end offset would lie past the page, fails its record
// instead of panicking.
func TestReadFailsSlotPastThePage(t *testing.T) {
	rs, rids, _ := craftedStore(t, twoRecordPage)
	if _, err := readWithin(t, rs, []uint32{0}); err != nil {
		t.Fatalf("slot 0 of the crafted page: %v", err)
	}
	rs, rids, _ = craftedStore(t, wideSlotCountPage)
	_, err := readWithin(t, rs, append(rids, craftedIDs-1))
	var re *RecordError
	if !errors.As(err, &re) || re.Index != len(rids) {
		t.Fatalf("slot %d: err = %v, want a *RecordError naming record %d", craftedIDs-1, err, len(rids))
	}
}

// FuzzRecordRead reads IDs the input names (two bytes each) from a store
// whose first page is the input's, beside the store's well-formed
// records. The read must not panic or hang; a failure must be a
// *RecordError; every read's Reads must count no more misses than pages,
// and a whole read exactly the distinct pages its IDs' runs name; and
// every well-formed record must round-trip, duplicates included, also
// through a read cancelled at an input-chosen point, which leaves an
// entry nil or whole. The seeds are the crafted pages, each of whose
// defects must fail the read (TestReadRejectsCorruptPages).
func FuzzRecordRead(f *testing.F) {
	f.Add(twoRecordPage, []byte{0, 0, 1, 0})
	f.Add(wideSlotCountPage, []byte{0, 0, 63, 0})
	f.Add([]byte{}, []byte{0, 0, 9, 1})
	for _, p := range [][]byte{sharedTooLongPage, endsDescendPage, endPastPagePage, firstIDPage} {
		f.Add(p, []byte{0, 0, 1, 0})
	}
	f.Add(restartSharesPage, []byte{15, 0, 16, 0})
	f.Fuzz(func(t *testing.T, page, named []byte) {
		rs, rids, want := craftedStore(t, page)
		req := append(append([]uint32{}, rids...), rids[1], rids[len(rids)-1])
		wantReq := append(append([][]byte{}, want...), want[1], want[len(want)-1])
		check := func(got [][]byte, nilOK bool) {
			t.Helper()
			for i, w := range wantReq {
				if !(nilOK && got[i] == nil) && !bytes.Equal(got[i], w) {
					t.Fatalf("record %d (ID %d): read %d bytes, want %d", i, req[i], len(got[i]), len(w))
				}
			}
		}
		checkReads := func(n Reads) {
			t.Helper()
			if n.Misses < 0 || n.Misses > n.Pages {
				t.Fatalf("read returned %+v: misses outside [0, pages]", n)
			}
		}
		checkWhole := func(n Reads, ids []uint32) {
			t.Helper()
			named := map[PageID]bool{}
			for _, id := range ids {
				page, _ := locate(rs, id)
				named[page] = true
			}
			if n.Pages != len(named) {
				t.Fatalf("read visited %d pages, want the %d its IDs' runs name", n.Pages, len(named))
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
		for ; len(named) >= 2; named = named[2:] {
			mixed = append(mixed, uint32(binary.LittleEndian.Uint16(named))%uint32(rs.Len()+2))
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
				t.Fatalf("record %d (ID %d) left nil by a read that succeeded", i, mixed[i])
			}
		}
	})
}
