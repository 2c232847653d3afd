package storage

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// RID is a record identifier: the page and slot of the record's first
// chunk. The zero RID is never a valid record.
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

// IsZero reports whether the RID is the invalid zero value.
func (r RID) IsZero() bool { return r.Page == 0 && r.Slot == 0 }

func (r RID) String() string { return fmt.Sprintf("rid(%d:%d)", r.Page, r.Slot) }

// Slotted page layout:
//
//	[0:2)  uint16 slot count
//	[2:4)  uint16 freeEnd — offset of the lowest byte used by record data
//	[4:..) slot table, 4 bytes per slot: uint16 data offset, uint16 length
//	[... : PageSize) record data, growing downward from the end
//
// Each record chunk starts with a 6-byte link header (uint32 next page,
// uint16 next slot) pointing at the record's next chunk; a zero link
// terminates the chain. Records larger than one page's free space are
// split into chunks across pages (overflow chaining).
const (
	pageHdrSize  = 4
	slotSize     = 4
	chunkHdrSize = 6
)

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

// RecordStore stores variable-length byte records in slotted pages
// through a BufferPool. Records are immutable once appended. The store
// is safe for concurrent use (serialised by the pool's lock plus its
// own append lock).
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

// Append stores data and returns its RID.
func (rs *RecordStore) Append(data []byte) (RID, error) {
	// Chunks are linked head→tail, so write them in reverse: the tail
	// first, then each earlier chunk pointing at the one after it.
	chunks := rs.split(data)
	next := RID{}
	for i := len(chunks) - 1; i >= 0; i-- {
		rid, err := rs.appendChunk(chunks[i], next)
		if err != nil {
			return RID{}, err
		}
		next = rid
	}
	return next, nil
}

// split partitions data into chunks that each fit a fresh page.
func (rs *RecordStore) split(data []byte) [][]byte {
	maxPayload := PageSize - pageHdrSize - slotSize - chunkHdrSize
	if len(data) <= maxPayload {
		return [][]byte{data}
	}
	var chunks [][]byte
	for len(data) > 0 {
		n := maxPayload
		if n > len(data) {
			n = len(data)
		}
		chunks = append(chunks, data[:n])
		data = data[n:]
	}
	return chunks
}

// errPageFull is putChunk's answer when the chunk does not fit the page.
var errPageFull = errors.New("storage: chunk does not fit the page")

// appendChunk writes one chunk with its link header, on the current page
// if it fits, else on a fresh page.
func (rs *RecordStore) appendChunk(payload []byte, next RID) (RID, error) {
	if rs.current != 0 {
		rid, err := rs.putChunk(rs.current, false, payload, next)
		if !errors.Is(err, errPageFull) {
			return rid, err
		}
	}
	id, err := rs.pool.Alloc()
	if err != nil {
		return RID{}, err
	}
	rs.current = id
	return rs.putChunk(id, true, payload, next)
}

// putChunk writes one chunk into a free slot of page, which holds no
// slot yet if it is fresh. A chunk that does not fit fails with
// errPageFull, and then, as on any error of Update's function, the page
// is left as it was and not marked dirty.
func (rs *RecordStore) putChunk(page PageID, fresh bool, payload []byte, next RID) (RID, error) {
	var rid RID
	err := rs.pool.Update(page, func(p []byte) error {
		slot, freeEnd := pageSlotCount(p), int(pageFreeEnd(p))
		if fresh {
			slot, freeEnd = 0, PageSize
		}
		total := chunkHdrSize + len(payload)
		off := freeEnd - total
		if off < pageHdrSize+int(slot+1)*slotSize {
			return errPageFull
		}
		binary.LittleEndian.PutUint32(p[off:off+4], uint32(next.Page))
		binary.LittleEndian.PutUint16(p[off+4:off+6], next.Slot)
		copy(p[off+chunkHdrSize:off+total], payload)
		setSlotEntry(p, slot, uint16(off), uint16(total))
		setSlotCount(p, slot+1)
		setFreeEnd(p, uint16(off))
		rid = RID{Page: page, Slot: slot}
		return nil
	})
	return rid, err
}

// chunkAt returns the payload and link of rid's chunk on its page p. It
// trusts no byte of the page: a slot past the slot count or whose table
// entry lies beyond the page, and a slot entry whose chunk does not fit
// the page, are errors.
func chunkAt(p []byte, rid RID) (payload []byte, next RID, err error) {
	if n := pageSlotCount(p); rid.Slot >= n {
		return nil, RID{}, fmt.Errorf("storage: %v: slot beyond slot count %d", rid, n)
	}
	if pageHdrSize+(int(rid.Slot)+1)*slotSize > PageSize {
		return nil, RID{}, fmt.Errorf("storage: %v: slot table entry beyond the page", rid)
	}
	off, length := slotEntry(p, rid.Slot)
	if int(off)+int(length) > PageSize || length < chunkHdrSize {
		return nil, RID{}, fmt.Errorf("storage: %v: corrupt slot entry", rid)
	}
	c := p[off : off+length]
	next = RID{Page: PageID(binary.LittleEndian.Uint32(c[0:4])), Slot: binary.LittleEndian.Uint16(c[4:6])}
	return c[chunkHdrSize:], next, nil
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

// Read reads the records at rids in page-locality rounds. A round sorts
// the chunks it reads by (page, slot), visits each distinct page once
// through one pool View, and copies out every chunk resident on it under
// that one lock acquisition. The first round reads every record's first
// chunk; a record spanning pages (overflow chaining) continues in the
// next round at the chunk its link names, so a one-chunk record — the
// common case — is one page visit.
//
// Results are in input order; duplicates are read once per occurrence.
// The Reads result sums its rounds' Views, also when the read fails or
// stops early: it is the whole page work of the read. Append
// writes a record's tail first and each earlier chunk on a page it
// allocates after the one the chunk links to, so a chain descends in
// page ID: a link that does not is corrupt — which bounds every chain
// and fails any that revisits a page — as is a slot the page cannot
// hold. Either fails the read with a *RecordError, as does a page the
// pool cannot read, and the results are then nil. If
// ctx is cancelled between two pages or rounds, the records not yet
// fully read are left nil and the context error is returned alongside
// the others; a nil entry therefore means "not read", while a non-nil
// empty slice is a genuinely empty record.
func (rs *RecordStore) Read(ctx context.Context, rids []RID) ([][]byte, Reads, error) {
	out := make([][]byte, len(rids))
	todo := make([]chunkRead, len(rids))
	for i, rid := range rids {
		todo[i] = chunkRead{idx: i, rid: rid}
	}
	var pages []PageID
	var total Reads
	for len(todo) > 0 {
		if ctx.Err() != nil {
			return unread(out, todo), total, ctx.Err()
		}
		slices.SortFunc(todo, func(a, b chunkRead) int { return cmp.Compare(a.rid.Pack(), b.rid.Pack()) })
		pages = pages[:0]
		for _, c := range todo {
			if n := len(pages); n == 0 || pages[n-1] != c.rid.Page {
				pages = append(pages, c.rid.Page)
			}
		}
		// The payload copies happen under the pool lock, because frames
		// may be rewritten after it is released.
		var next []chunkRead
		cur := 0
		n, err := rs.pool.View(pages, func(i int, p []byte) error {
			if ctx.Err() != nil {
				return errBatchStop
			}
			for ; cur < len(todo) && todo[cur].rid.Page == pages[i]; cur++ {
				c := todo[cur]
				payload, link, err := chunkAt(p, c.rid)
				if err == nil && !link.IsZero() && link.Page >= c.rid.Page {
					err = fmt.Errorf("storage: %v: chain links up to page %d", c.rid, link.Page)
				}
				if err != nil {
					return &RecordError{Index: c.idx, RID: rids[c.idx], Err: err}
				}
				if out[c.idx] == nil { // a first chunk
					out[c.idx] = make([]byte, len(payload))
					copy(out[c.idx], payload)
				} else {
					out[c.idx] = append(out[c.idx], payload...)
				}
				if !link.IsZero() {
					next = append(next, chunkRead{idx: c.idx, rid: link})
				}
			}
			return nil
		})
		total = total.Add(n)
		if errors.Is(err, errBatchStop) {
			// A record interrupted mid-chain would be silently truncated:
			// everything this round did not finish reads as not read.
			unread(out, todo[cur:])
			return unread(out, next), total, ctx.Err()
		}
		if err != nil {
			// A page fault surfaces from the pool before fn sees the page;
			// attribute it to the first unread chunk's record, the head of
			// the failing page's group.
			var re *RecordError
			if !errors.As(err, &re) && cur < len(todo) {
				err = &RecordError{Index: todo[cur].idx, RID: rids[todo[cur].idx], Err: err}
			}
			return nil, total, err
		}
		todo = next
	}
	return out, total, nil
}

// chunkRead is the next chunk Read reads of record idx.
type chunkRead struct {
	idx int
	rid RID
}

// unread resets to nil the results of the records cs are chunks of.
func unread(out [][]byte, cs []chunkRead) [][]byte {
	for _, c := range cs {
		out[c.idx] = nil
	}
	return out
}
