package storage

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Run is one entry of a record store's directory: the records from ID
// First up to the next run's First sit on Page, in slots 0, 1, 2, ….
type Run struct {
	Page  PageID
	First uint32
}

// Front-coded page layout:
//
//	[0:2)  uint16 record count n
//	[2:6)  uint32 the ID of the record in slot 0
//	[6:e)  the records' entries, one after another, growing upward
//	[PageSize−2n : PageSize)  the entries' end offsets, slot i's at PageSize−2(i+1)
//
// An entry is a varint, the count of leading bytes its record shares
// with the previous record on the page, then the rest of the record.
// At slot 0 and every restartEvery slots the count is 0 — the record is
// spelled in full — so a read needs no entry before the nearest restart.
const (
	pageHdrSize  = 6
	endSize      = 2
	restartEvery = 16
)

// MaxRecord is the largest record Append stores: what a fresh page
// holds after its header, one end offset and the shared count 0.
const MaxRecord = PageSize - pageHdrSize - endSize - 1

func pageCount(p []byte) int    { return int(binary.LittleEndian.Uint16(p[0:2])) }
func pageFirst(p []byte) uint32 { return binary.LittleEndian.Uint32(p[2:6]) }
func entryEnd(p []byte, slot int) int {
	at := PageSize - endSize*(slot+1)
	return int(binary.LittleEndian.Uint16(p[at : at+endSize]))
}

// entryStart returns where slot's entry begins: where the previous one
// ends, or after the header.
func entryStart(p []byte, slot int) int {
	if slot == 0 {
		return pageHdrSize
	}
	return entryEnd(p, slot-1)
}

// RecordStore stores variable-length byte records of at most MaxRecord
// bytes in front-coded pages through a BufferPool, and addresses each by
// its ID: Append hands out 0, 1, 2, … and puts each record in the slot
// after its predecessor's, or in slot 0 of a fresh page, which opens a
// run of the directory. Records are immutable once appended. Appends
// are not safe for concurrent use, nor with reads (the index serialises
// its writers, and its readers wait for them); reads are, serialised by
// the pool's lock.
type RecordStore struct {
	pool *BufferPool
	dir  []Run
	// count is the number of IDs handed out: the next Append's ID.
	count uint32
	// current is the page open for appends (0: none), last the record
	// in its last slot, which the next one on the page is coded against.
	current PageID
	last    []byte
}

// NewRecordStore returns a store over pool holding count records at the
// runs of dir: nil and 0 for a fresh store, the directory and count an
// earlier store had committed when reopening one. Appends begin on a
// fresh page, so slots no run covers — records appended after the
// directory was taken — stay unnamed, and their IDs are handed out
// again.
func NewRecordStore(pool *BufferPool, dir []Run, count uint32) *RecordStore {
	return &RecordStore{pool: pool, dir: dir, count: count}
}

// Len returns the number of IDs handed out.
func (rs *RecordStore) Len() int { return int(rs.count) }

// Directory returns the store's runs, ascending in page and in first ID.
// The slice is the store's: read it before the next Append or Seal.
func (rs *RecordStore) Directory() []Run { return rs.dir }

// Seal closes the page open for appends, so the next Append goes to a
// freshly allocated page, and forgets every record from ID n on: the
// next Append hands out n, and the runs opened at or after it leave the
// directory. No page is rewritten. The index seals at its path count
// after a checkpoint, so pages holding only checkpointed (no longer
// replayable) records are never rewritten and a torn page write cannot
// destroy records the WAL can no longer restore; and at its path count
// from before a failed insert's staging, whose records' slots then stay
// after the last remembered record on a page that takes no further
// appends, while the pages opened for them are named by no run.
func (rs *RecordStore) Seal(n int) {
	rs.dir = rs.dir[:sort.Search(len(rs.dir), func(i int) bool { return rs.dir[i].First >= uint32(n) })]
	rs.count, rs.current, rs.last = uint32(n), 0, rs.last[:0]
}

// errPageFull is put's answer when the record does not fit the page.
var errPageFull = errors.New("storage: record does not fit the page")

// Append stores data in one slot — on the current page if it fits,
// else on a fresh page — and returns its ID. A record of more than
// MaxRecord bytes fits no page and is refused.
func (rs *RecordStore) Append(data []byte) (uint32, error) {
	if len(data) > MaxRecord {
		return 0, fmt.Errorf("storage: a record of %d bytes exceeds the %d a page holds", len(data), MaxRecord)
	}
	err := errPageFull
	if rs.current != 0 {
		err = rs.put(data)
	}
	if errors.Is(err, errPageFull) {
		page, aerr := rs.pool.Alloc()
		if aerr != nil {
			return 0, aerr
		}
		rs.current, rs.last = page, rs.last[:0]
		err = rs.put(data)
	}
	if err != nil {
		return 0, err
	}
	return rs.count - 1, nil
}

// put writes data into the next slot of the current page, coded against
// the record before it unless the slot is a restart, and hands it the
// next ID; a page's first record opens a run. A record that does not fit
// fails with errPageFull, and then, as on any error of Update's
// function, the page is left as it was and not marked dirty.
func (rs *RecordStore) put(data []byte) error {
	opens := false
	err := rs.pool.Update(rs.current, func(p []byte) error {
		n := pageCount(p)
		shared := 0
		if n%restartEvery != 0 {
			for shared < min(len(rs.last), len(data)) && rs.last[shared] == data[shared] {
				shared++
			}
		}
		var head [binary.MaxVarintLen64]byte
		w := binary.PutUvarint(head[:], uint64(shared))
		at := entryStart(p, n)
		end := at + w + len(data) - shared
		if end > PageSize-endSize*(n+1) {
			return errPageFull
		}
		copy(p[at+copy(p[at:], head[:w]):], data[shared:])
		binary.LittleEndian.PutUint16(p[PageSize-endSize*(n+1):], uint16(end))
		binary.LittleEndian.PutUint16(p[0:2], uint16(n+1))
		if opens = n == 0; opens {
			binary.LittleEndian.PutUint32(p[2:6], rs.count)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if opens {
		rs.dir = append(rs.dir, Run{Page: rs.current, First: rs.count})
	}
	rs.last = append(rs.last[:0], data...)
	rs.count++
	return nil
}

// record appends slot's record on page p, whose record count Read has
// checked, to dst. It copies the rest of the slot's entry, then walks
// back through the entries before it, each filling the bytes its record
// shares with the next that it spells itself, until the record's first
// byte is filled — at the latest at the slot's restart, which shares
// nothing. It trusts no byte it reads: a slot past the record count, an
// entry out of order or past the page, a truncated shared count, one
// longer than the previous record and a restart that shares anything
// are errors.
func record(dst, p []byte, slot int) ([]byte, error) {
	n := pageCount(p)
	if slot >= n {
		return nil, fmt.Errorf("storage: slot %d beyond the page's %d records", slot, n)
	}
	end := entryEnd(p, slot)
	if end > PageSize-endSize*n {
		return nil, fmt.Errorf("storage: slot %d: entry ends at %d, past the page's records", slot, end)
	}
	var out []byte // the record, at the end of dst
	// out[:need] is still to fill; next is the shared count of entry i+1.
	need, next := 0, 0
	for i := slot; i == slot || need > 0; i-- {
		at := entryStart(p, i)
		if at < pageHdrSize || at >= end {
			return nil, fmt.Errorf("storage: slot %d: entry [%d, %d) out of order", i, at, end)
		}
		s, w := uint64(p[at]), 1
		if s >= 0x80 { // a count of 128 bytes or more: rare
			s, w = binary.Uvarint(p[at:end])
		}
		switch {
		case w <= 0 || s > MaxRecord:
			return nil, fmt.Errorf("storage: slot %d: bad shared count", i)
		case i%restartEvery == 0 && s != 0:
			return nil, fmt.Errorf("storage: slot %d: a restart shares %d bytes", i, s)
		}
		shared, rest := int(s), p[at+w:end]
		switch {
		case i == slot:
			from := len(dst)
			dst = slices.Grow(dst, shared+len(rest))[:from+shared+len(rest)]
			out = dst[from:]
			copy(out[shared:], rest)
			need = shared
		case next > shared+len(rest):
			return nil, fmt.Errorf("storage: slot %d: shares %d bytes of a %d-byte record", i+1, next, shared+len(rest))
		case shared < need:
			copy(out[shared:need], rest)
			need = shared
		}
		next, end = shared, at
	}
	return dst, nil
}

// errBatchStop aborts a View pass early without surfacing a storage
// error; Read translates it back into the context error.
var errBatchStop = errors.New("storage: batch read stopped")

// RecordError attributes a read failure to one input record, so callers
// holding higher-level names for the records can report which one
// failed instead of an anonymous whole-batch error.
type RecordError struct {
	// Index is the record's position in the input ID slice.
	Index int
	// ID is the failing record.
	ID uint32
	// Err is the underlying failure.
	Err error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("record %d (ID %d): %v", e.Index, e.ID, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// Read reads the records with the given IDs in one page-locality pass:
// it sorts them, which sorts them by (page, slot), visits each distinct
// page once through one pool View, and decodes every record wanted on it
// under that one lock acquisition.
//
// Results are in input order, cut from one buffer with their capacity
// capped; duplicates are read once per occurrence.
// The Reads result is the View's page work, also when the read fails or
// stops early. An ID no run or slot holds, or a page that does not
// decode, fails the read with a *RecordError, as does a page the pool
// cannot read, and the results are then nil. If ctx is cancelled before
// the read or between two pages, the records not yet read are left nil
// and the context error is returned alongside the others; a nil entry
// therefore means "not read", while a non-nil empty slice is a genuinely
// empty record.
func (rs *RecordStore) Read(ctx context.Context, ids []uint32) ([][]byte, Reads, error) {
	out := make([][]byte, len(ids))
	if err := ctx.Err(); err != nil {
		return out, Reads{}, err
	}
	order := make([]int, len(ids)) // input positions in ID order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(ids[a], ids[b]) })
	// runs[k] is the run of the k-th page to visit, ends[k] where its
	// records end in order.
	var runs, ends []int
	r := -1 // the run holding the ID at hand: the last not above it
	for k, i := range order {
		for r+1 < len(rs.dir) && rs.dir[r+1].First <= ids[i] {
			r++
		}
		if r < 0 || ids[i] >= rs.count {
			return nil, Reads{}, &RecordError{Index: i, ID: ids[i], Err: fmt.Errorf("storage: no run holds ID %d (%d records)", ids[i], rs.count)}
		}
		if len(runs) == 0 || runs[len(runs)-1] != r {
			runs, ends = append(runs, r), append(ends, 0)
		}
		ends[len(ends)-1] = k + 1
	}
	pages := make([]PageID, len(runs))
	for k, r := range runs {
		pages[k] = rs.dir[r].Page
	}
	// The copies happen under the pool lock, because frames may be
	// rewritten after it is released. They go to one buffer, the records
	// back to back; stops[i] is where out[i] ends in it once read.
	buf, stops := make([]byte, 0, 16*len(ids)), make([]int, len(ids))
	cur := 0
	n, err := rs.pool.View(pages, func(k int, p []byte) error {
		if ctx.Err() != nil {
			return errBatchStop
		}
		run := rs.dir[runs[k]]
		if n := pageCount(p); pageHdrSize+endSize*n > PageSize || pageFirst(p) != run.First {
			err := fmt.Errorf("storage: page %d holds %d records from ID %d, not its run's from %d", run.Page, n, pageFirst(p), run.First)
			return &RecordError{Index: order[cur], ID: ids[order[cur]], Err: err}
		}
		for ; cur < ends[k]; cur++ {
			i := order[cur]
			from := len(buf)
			var err error
			if buf, err = record(buf, p, int(ids[i]-run.First)); err != nil {
				return &RecordError{Index: i, ID: ids[i], Err: err}
			}
			out[i], stops[i] = buf[from:], len(buf) // moved onto buf's last backing below
		}
		return nil
	})
	if err != nil && !errors.Is(err, errBatchStop) {
		// A page fault surfaces from the pool before fn sees the page;
		// attribute it to the first unread record, the head of the
		// failing page's group.
		var re *RecordError
		if !errors.As(err, &re) && cur < len(order) {
			err = &RecordError{Index: order[cur], ID: ids[order[cur]], Err: err}
		}
		return nil, n, err
	}
	for i, rec := range out {
		if rec != nil {
			out[i] = buf[stops[i]-len(rec) : stops[i] : stops[i]]
		}
	}
	if err != nil {
		return out, n, ctx.Err()
	}
	return out, n, nil
}
