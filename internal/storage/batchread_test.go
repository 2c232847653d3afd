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

// batchFixture appends n small records plus one multi-page overflow
// record and returns the store with everything needed to read back.
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
	big := make([]byte, PageSize*2+311)
	for i := range big {
		big[i] = byte(i * 13)
	}
	rid, err := rs.Append(big)
	if err != nil {
		t.Fatal(err)
	}
	rids = append(rids, rid)
	want = append(want, big)
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
	got, npages, err := rs.Read(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if npages <= 0 {
		t.Errorf("npages = %d, want > 0", npages)
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
	// Duplicate RIDs each get an independent copy, the multi-page record
	// too.
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

	var serial IOTally
	for _, rid := range rids {
		if _, _, err := rs.Read(WithTally(context.Background(), &serial), []RID{rid}); err != nil {
			t.Fatal(err)
		}
	}

	var batch IOTally
	got, npages, err := rs.Read(WithTally(context.Background(), &batch), rids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] == nil {
			t.Fatalf("record %d not read", i)
		}
	}
	// The batch charges each page it visits once per round; one record
	// at a time re-charges a page for every record on it. Batched page
	// accesses must therefore be strictly fewer while still being
	// attributed exactly: each visit, and nothing else, to our tally.
	serialReads := serial.Hits() + serial.Misses()
	batchReads := batch.Hits() + batch.Misses()
	if batchReads >= serialReads {
		t.Errorf("batched page reads %d not below serial %d", batchReads, serialReads)
	}
	if int(batchReads) != npages {
		t.Errorf("tally page reads %d, want the %d visits", batchReads, npages)
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
	rs, rids, want := batchFixture(t, 100)
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

	// Cancelled between the first round and the second: every one-chunk
	// record is read, and the multi-page one, only its first chunk read,
	// is left nil rather than returned truncated.
	firstPages := map[PageID]bool{}
	for _, rid := range rids {
		firstPages[rid.Page] = true
	}
	got, _, err = rs.Read(&cancelAfter{context.Background(), 1 + len(firstPages)}, rids)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	last := len(rids) - 1
	for i := range rids[:last] {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("one-chunk record %d not read before the cancellation", i)
		}
	}
	if got[last] != nil {
		t.Fatalf("multi-page record returned %d of its %d bytes", len(got[last]), len(want[last]))
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
// well-formed records: small ones, an empty one and one spanning three
// pages. It returns those records' RIDs and contents.
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
	want := [][]byte{nil, bytes.Repeat([]byte{0xb1}, 2*PageSize+311)}
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

// pageWithChunk returns a page holding one chunk, "loop", in slot 0,
// linked to next, under the given slot count.
func pageWithChunk(slots uint16, next RID) []byte {
	p := make([]byte, PageSize)
	off := uint16(PageSize - chunkHdrSize - 4)
	setSlotCount(p, slots)
	setFreeEnd(p, off)
	setSlotEntry(p, 0, off, chunkHdrSize+4)
	binary.LittleEndian.PutUint32(p[off:], uint32(next.Page))
	binary.LittleEndian.PutUint16(p[off+4:], next.Slot)
	copy(p[off+chunkHdrSize:], "loop")
	return p
}

// Two crafted pages, each one on-disk defect: a chunk linked to itself,
// and a slot count (0xffff) that admits slots whose table entries lie
// past the page.
var (
	selfLinkedPage    = pageWithChunk(1, RID{Page: 1, Slot: 0})
	wideSlotCountPage = pageWithChunk(0xffff, RID{})
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

// TestReadFailsChainThatRevisitsAPage: a chunk whose link points back
// into its own chain fails its record instead of looping forever.
func TestReadFailsChainThatRevisitsAPage(t *testing.T) {
	rs, rids, _ := craftedStore(t, selfLinkedPage)
	err := readWithin(t, rs, append([]RID{{Page: 1, Slot: 0}}, rids...))
	var re *RecordError
	if !errors.As(err, &re) || re.Index != 0 {
		t.Fatalf("self-linked chunk: err = %v, want a *RecordError naming record 0", err)
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
// failure must be a *RecordError; and every well-formed record must
// round-trip, duplicates included, also through a read cancelled at an
// input-chosen point, which leaves an entry nil or whole.
func FuzzRecordRead(f *testing.F) {
	f.Add(selfLinkedPage, []byte{1, 0, 0})
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
		got, _, err := rs.Read(context.Background(), req)
		if err != nil {
			t.Fatalf("well-formed records: %v", err)
		}
		check(got, false)

		ctx := &cancelAfter{context.Background(), len(named) % 8}
		got, _, err = rs.Read(ctx, req)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled read: %v", err)
		}
		check(got, err != nil)

		mixed := req
		for ; len(named) >= 3; named = named[3:] {
			mixed = append(mixed, RID{Page: PageID(int(named[0]) % (npages + 2)), Slot: binary.LittleEndian.Uint16(named[1:3])})
		}
		got, _, err = rs.Read(context.Background(), mixed)
		if err != nil {
			var re *RecordError
			if !errors.As(err, &re) || got != nil {
				t.Fatalf("failed read: %v (results %v), want a *RecordError and no results", err, got != nil)
			}
			return
		}
		check(got, false)
		for i := len(req); i < len(mixed); i++ {
			if got[i] == nil {
				t.Fatalf("record %d (%v) left nil by a read that succeeded", i, mixed[i])
			}
		}
	})
}
