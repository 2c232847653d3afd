package storage

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// RID is a record identifier: the page and slot of the record.
type RID struct {
	Page PageID
	Slot uint16
}

// Pack encodes the RID into a uint64 for storage inside other records.
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// UnpackRID decodes a packed RID.
func UnpackRID(v uint64) RID {
	return RID{Page: PageID(v >> 16), Slot: uint16(v & 0xffff)}
}

func (r RID) String() string { return fmt.Sprintf("rid(%d:%d)", r.Page, r.Slot) }

// Slotted page layout:
//
//	[0:2)  uint16 slot count
//	[2:4)  uint16 freeEnd — offset of the lowest byte used by record data
//	[4:..) slot table, 4 bytes per slot: uint16 data offset, uint16 length
//	[... : PageSize) record data, growing downward from the end
//
// A record is one slot on one page: its bytes are the slot's data.
const (
	pageHdrSize = 4
	slotSize    = 4
)

// MaxRecord is the largest record Append stores: what a fresh page
// holds after its header and one slot.
const MaxRecord = PageSize - pageHdrSize - slotSize

func pageSlotCount(p []byte) uint16   { return binary.LittleEndian.Uint16(p[0:2]) }
func pageFreeEnd(p []byte) uint16     { return binary.LittleEndian.Uint16(p[2:4]) }
func setSlotCount(p []byte, n uint16) { binary.LittleEndian.PutUint16(p[0:2], n) }
func setFreeEnd(p []byte, n uint16)   { binary.LittleEndian.PutUint16(p[2:4], n) }

func slotEntry(p []byte, slot uint16) (off, length uint16) {
	base := pageHdrSize + int(slot)*slotSize
	return binary.LittleEndian.Uint16(p[base : base+2]), binary.LittleEndian.Uint16(p[base+2 : base+4])
}

func setSlotEntry(p []byte, slot, off, length uint16) {
	base := pageHdrSize + int(slot)*slotSize
	binary.LittleEndian.PutUint16(p[base:base+2], off)
	binary.LittleEndian.PutUint16(p[base+2:base+4], length)
}

// RecordStore stores variable-length byte records of at most MaxRecord
// bytes in slotted pages through a BufferPool. Records are immutable
// once appended. Appends are not safe for concurrent use (the index
// serialises its writers); reads are, serialised by the pool's lock.
type RecordStore struct {
	pool    *BufferPool
	current PageID // page open for appends; 0 = none
}

// NewRecordStore returns a store over pool. A fresh store begins
// appending into a new page on first use; reopening a store over an
// existing file only requires the RIDs to remain valid, which they do
// (appends then go to fresh pages).
func NewRecordStore(pool *BufferPool) *RecordStore {
	return &RecordStore{pool: pool}
}

// SealCurrentPage closes the page open for appends, so the next
// Append goes to a freshly allocated page. The index calls it after a
// checkpoint: pages holding only checkpointed (no longer replayable)
// records are never rewritten afterwards, which keeps a torn page
// write from destroying records the WAL can no longer restore.
func (rs *RecordStore) SealCurrentPage() { rs.current = 0 }

// errPageFull is put's answer when the record does not fit the page.
var errPageFull = errors.New("storage: record does not fit the page")

// Append stores data in one slot — on the current page if it fits,
// else on a fresh page — and returns its RID. A record of more than
// MaxRecord bytes fits no page and is refused.
func (rs *RecordStore) Append(data []byte) (RID, error) {
	if len(data) > MaxRecord {
		return RID{}, fmt.Errorf("storage: a record of %d bytes exceeds the %d a page holds", len(data), MaxRecord)
	}
	if rs.current != 0 {
		rid, err := rs.put(rs.current, false, data)
		if !errors.Is(err, errPageFull) {
			return rid, err
		}
	}
	id, err := rs.pool.Alloc()
	if err != nil {
		return RID{}, err
	}
	rs.current = id
	return rs.put(id, true, data)
}

// put writes data into a free slot of page, which holds no slot yet if
// it is fresh. A record that does not fit fails with errPageFull, and
// then, as on any error of Update's function, the page is left as it
// was and not marked dirty.
func (rs *RecordStore) put(page PageID, fresh bool, data []byte) (RID, error) {
	var rid RID
	err := rs.pool.Update(page, func(p []byte) error {
		slot, freeEnd := pageSlotCount(p), int(pageFreeEnd(p))
		if fresh {
			slot, freeEnd = 0, PageSize
		}
		off := freeEnd - len(data)
		if off < pageHdrSize+int(slot+1)*slotSize {
			return errPageFull
		}
		copy(p[off:freeEnd], data)
		setSlotEntry(p, slot, uint16(off), uint16(len(data)))
		setSlotCount(p, slot+1)
		setFreeEnd(p, uint16(off))
		rid = RID{Page: page, Slot: slot}
		return nil
	})
	return rid, err
}

// recordAt returns the bytes of rid's record on its page p. It trusts no
// byte of the page: a slot past the slot count or whose table entry lies
// beyond the page, and a slot entry whose record does not fit the page,
// are errors.
func recordAt(p []byte, rid RID) ([]byte, error) {
	if n := pageSlotCount(p); rid.Slot >= n {
		return nil, fmt.Errorf("storage: %v: slot beyond slot count %d", rid, n)
	}
	if pageHdrSize+(int(rid.Slot)+1)*slotSize > PageSize {
		return nil, fmt.Errorf("storage: %v: slot table entry beyond the page", rid)
	}
	off, length := slotEntry(p, rid.Slot)
	if int(off)+int(length) > PageSize {
		return nil, fmt.Errorf("storage: %v: corrupt slot entry", rid)
	}
	return p[off : off+length], nil
}

// errBatchStop aborts a View pass early without surfacing a storage
// error; Read translates it back into the context error.
var errBatchStop = errors.New("storage: batch read stopped")

// RecordError attributes a read failure to one input record, so callers
// holding higher-level names for the records (the index knows which
// PathID each RID backs) can report which one failed instead of an
// anonymous whole-batch error.
type RecordError struct {
	// Index is the record's position in the input RID slice.
	Index int
	// RID is the failing record.
	RID RID
	// Err is the underlying failure.
	Err error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("record %d (%v): %v", e.Index, e.RID, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// Read reads the records at rids in one page-locality pass: it sorts
// them by (page, slot), visits each distinct page once through one pool
// View, and copies out every record resident on it under that one lock
// acquisition.
//
// Results are in input order; duplicates are read once per occurrence.
// The Reads result is the View's page work, also when the read fails or
// stops early. A slot the page cannot hold fails the read with a
// *RecordError, as does a page the pool cannot read, and the results
// are then nil. If ctx is cancelled before the read or between two
// pages, the records not yet read are left nil and the context error is
// returned alongside the others; a nil entry therefore means "not
// read", while a non-nil empty slice is a genuinely empty record.
func (rs *RecordStore) Read(ctx context.Context, rids []RID) ([][]byte, Reads, error) {
	out := make([][]byte, len(rids))
	if err := ctx.Err(); err != nil {
		return out, Reads{}, err
	}
	order := make([]int, len(rids)) // input positions in (page, slot) order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(rids[a].Pack(), rids[b].Pack()) })
	var pages []PageID
	for _, i := range order {
		if n := len(pages); n == 0 || pages[n-1] != rids[i].Page {
			pages = append(pages, rids[i].Page)
		}
	}
	// The copies happen under the pool lock, because frames may be
	// rewritten after it is released.
	cur := 0
	n, err := rs.pool.View(pages, func(pi int, p []byte) error {
		if ctx.Err() != nil {
			return errBatchStop
		}
		for ; cur < len(order) && rids[order[cur]].Page == pages[pi]; cur++ {
			i := order[cur]
			rec, err := recordAt(p, rids[i])
			if err != nil {
				return &RecordError{Index: i, RID: rids[i], Err: err}
			}
			out[i] = make([]byte, len(rec))
			copy(out[i], rec)
		}
		return nil
	})
	if errors.Is(err, errBatchStop) {
		return out, n, ctx.Err()
	}
	if err != nil {
		// A page fault surfaces from the pool before fn sees the page;
		// attribute it to the first unread record, the head of the
		// failing page's group.
		var re *RecordError
		if !errors.As(err, &re) && cur < len(order) {
			err = &RecordError{Index: order[cur], RID: rids[order[cur]], Err: err}
		}
		return nil, n, err
	}
	return out, n, nil
}
