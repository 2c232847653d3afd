package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// This file implements the write-ahead log behind the index's durable
// write path. The WAL is a sequence of segment files, each a header
// followed by length+LSN+CRC32-framed records. Mutations are logged
// (and fsynced) before any page is touched, so a crash at any point
// leaves the pages+metadata checkpoint plus a replayable suffix of
// records; Open replays the suffix and the index converges to the
// pre-crash state. Each Append frames, writes and fsyncs its record
// under the log's mutex: the index holds one writer at a time, so no
// two appends ever have a sync to share.
//
// Torn tails — a crash mid-append leaves a half-written record at the
// end of the newest segment — are detected by the CRC/length framing
// and truncated on open, never replayed. Corruption anywhere else (a
// bad record with valid data after it, a bad segment header before the
// newest segment) is not a tear and surfaces as ErrWALCorrupt.

// ErrWALCorrupt marks WAL damage that cannot be explained by a crash
// mid-append: replaying past it could resurrect arbitrary garbage, so
// the open fails instead.
var ErrWALCorrupt = errors.New("storage: wal corrupt")

// ErrWALPoisoned is returned by appends after a WAL write or sync has
// failed. A failed fsync leaves the kernel free to drop the dirty
// pages, so the log's durable prefix is unknown; the only safe move is
// to stop accepting writes (no silent retry) until the WAL is reopened.
var ErrWALPoisoned = errors.New("storage: wal poisoned by an earlier write or sync failure")

// walMagic identifies a WAL segment file.
var walMagic = [8]byte{'S', 'A', 'M', 'A', 'W', 'A', 'L', '1'}

const (
	// walSegHdrSize is the segment header: magic(8) + firstLSN(8) +
	// crc32 over firstLSN (4).
	walSegHdrSize = 20
	// walRecHdrSize is the record frame header: payload length(4) +
	// LSN(8) + crc32 over LSN+payload (4).
	walRecHdrSize = 16
	// walMaxRecord bounds one record's payload, so a torn length field
	// cannot make the scanner allocate gigabytes.
	walMaxRecord = 64 << 20

	// DefaultWALSegmentBytes is the segment rotation threshold.
	DefaultWALSegmentBytes = 4 << 20
)

// WALOptions configure OpenWAL.
type WALOptions struct {
	// SegmentBytes is the rotation threshold: once a segment reaches
	// it, the next append opens a fresh segment (0 = 4 MiB).
	SegmentBytes int64
	// MinNextLSN forces the next assigned LSN to be at least this
	// value. The index passes appliedLSN+1 so that a WAL directory
	// that was deleted out from under a checkpointed index can never
	// re-issue an LSN the metadata already claims to have applied.
	MinNextLSN uint64
	// NoSync skips the fsync on commit. FuzzOpenWAL sets it, to run
	// many opens per second; never in production.
	NoSync bool
	// SyncHook, when set, runs immediately before each commit fsync
	// (even with NoSync), under the log's mutex, so it must not call
	// the log. Tests use it to snapshot the on-disk state "during" the
	// fsync for crash-matrix kill points; an error from the hook fails
	// the append exactly like a sync failure, poisoning the log.
	SyncHook func() error
}

func (o WALOptions) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultWALSegmentBytes
	}
	return o.SegmentBytes
}

// WALStats is a snapshot of the log's counters.
type WALStats struct {
	// Appends is the number of records appended.
	Appends uint64 `json:"appends"`
	// Syncs is the number of commit fsyncs: one per append (none with
	// NoSync).
	Syncs uint64 `json:"syncs"`
	// Bytes is the total size of the live segment files.
	Bytes int64 `json:"bytes"`
	// AppendedBytes counts every byte ever written, across checkpoints.
	AppendedBytes uint64 `json:"appended_bytes"`
	// Segments is the number of live segment files.
	Segments int `json:"segments"`
	// Rotations counts segment rollovers.
	Rotations uint64 `json:"rotations"`
	// Checkpoints counts Checkpoint calls that removed or rotated at
	// least one segment.
	Checkpoints uint64 `json:"checkpoints"`
	// TornTailRepaired reports that the last OpenWAL truncated a
	// half-written record off the newest segment.
	TornTailRepaired bool `json:"torn_tail_repaired"`
	// LastLSN is the highest LSN assigned so far (0 = none).
	LastLSN uint64 `json:"last_lsn"`
}

// walSegment is one live segment file, oldest first in WAL.segments.
type walSegment struct {
	index    uint64 // number in the file name, strictly increasing
	firstLSN uint64 // LSN the segment opens at
	size     int64
}

// WAL is a segmented write-ahead log. It is safe for concurrent use;
// Append holds the log's mutex across its write and fsync.
type WAL struct {
	mu       sync.Mutex
	dir      string
	opts     WALOptions
	f        *os.File // newest segment, open for append
	segments []walSegment

	nextLSN uint64 // the LSN the next appended record gets

	err    error // sticky poison after a failed write or sync
	closed bool

	stats struct {
		appends       uint64
		syncs         uint64
		appendedBytes uint64
		rotations     uint64
		checkpoints   uint64
		tornRepaired  bool
	}
}

func walSegName(index uint64) string { return fmt.Sprintf("wal-%08d.log", index) }

// OpenWAL opens (creating if needed) the write-ahead log in dir. The
// existing segments are scanned: every record frame is validated, a
// torn tail on the newest segment is truncated away (recorded in
// Stats().TornTailRepaired), and corruption anywhere else fails with
// ErrWALCorrupt. The log is then positioned to append after the
// highest surviving LSN.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: wal dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts}
	if err := w.scan(); err != nil {
		return nil, err
	}
	if w.nextLSN < opts.MinNextLSN {
		w.nextLSN = opts.MinNextLSN
	}
	if w.nextLSN == 0 {
		w.nextLSN = 1
	}
	if len(w.segments) == 0 {
		if err := w.newSegmentLocked(w.nextLSN); err != nil {
			return nil, err
		}
	} else {
		tail := w.segments[len(w.segments)-1]
		f, err := os.OpenFile(filepath.Join(dir, walSegName(tail.index)), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("storage: wal reopen tail: %w", err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: wal seek tail: %w", err)
		}
		w.f = f
	}
	return w, nil
}

// listSegments returns the segment files in dir in index order.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: wal list: %w", err)
	}
	var idxs []uint64
	for _, e := range ents {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &n); err == nil {
			idxs = append(idxs, n)
		}
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	return idxs, nil
}

// scan validates every segment, repairing a torn tail on the newest
// one, and initialises the in-memory segment table and LSN counters.
func (w *WAL) scan() error {
	idxs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for i, idx := range idxs {
		last := i == len(idxs)-1
		seg, maxLSN, err := w.scanSegment(idx, last)
		if err != nil {
			return err
		}
		if seg == nil { // empty torn tail segment, removed
			continue
		}
		w.segments = append(w.segments, *seg)
		if maxLSN >= w.nextLSN {
			w.nextLSN = maxLSN + 1
		}
		if seg.firstLSN >= w.nextLSN {
			// A rotated-but-empty tail opens at the LSN it will
			// receive next.
			w.nextLSN = seg.firstLSN
		}
	}
	return nil
}

// scanSegment validates one segment file. For the newest segment a bad
// header (LSNs start at 1, so one opening at 0 is bad too) or a trailing
// partial or CRC-failing record is a torn tail, removed or truncated
// off; anywhere else it is corruption. Returns the segment entry (nil if
// the header was bad) and the highest LSN it holds (0 if none).
func (w *WAL) scanSegment(index uint64, last bool) (*walSegment, uint64, error) {
	path := filepath.Join(w.dir, walSegName(index))
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: wal open %s: %w", path, err)
	}
	defer f.Close()

	var hdr [walSegHdrSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if last {
			// Crash between creating the file and writing its header:
			// nothing in it can be valid, drop it.
			w.stats.tornRepaired = true
			return nil, 0, os.Remove(path)
		}
		return nil, 0, fmt.Errorf("%w: segment %d header: %v", ErrWALCorrupt, index, err)
	}
	if [8]byte(hdr[:8]) != walMagic {
		if last {
			w.stats.tornRepaired = true
			return nil, 0, os.Remove(path)
		}
		return nil, 0, fmt.Errorf("%w: segment %d bad magic", ErrWALCorrupt, index)
	}
	firstLSN := binary.LittleEndian.Uint64(hdr[8:16])
	if firstLSN == 0 || crc32.ChecksumIEEE(hdr[8:16]) != binary.LittleEndian.Uint32(hdr[16:20]) {
		if last {
			w.stats.tornRepaired = true
			return nil, 0, os.Remove(path)
		}
		return nil, 0, fmt.Errorf("%w: segment %d header checksum", ErrWALCorrupt, index)
	}

	off := int64(walSegHdrSize)
	maxLSN := uint64(0)
	expect := firstLSN
	var rh [walRecHdrSize]byte
	tear := func() (*walSegment, uint64, error) {
		if !last {
			return nil, 0, fmt.Errorf("%w: segment %d damaged at offset %d before the newest segment", ErrWALCorrupt, index, off)
		}
		if err := os.Truncate(path, off); err != nil {
			return nil, 0, fmt.Errorf("storage: wal truncate torn tail: %w", err)
		}
		w.stats.tornRepaired = true
		return &walSegment{index: index, firstLSN: firstLSN, size: off}, maxLSN, nil
	}
	for {
		_, err := io.ReadFull(f, rh[:])
		if err == io.EOF {
			break // clean end
		}
		if err != nil { // io.ErrUnexpectedEOF: header cut mid-write
			return tear()
		}
		length := binary.LittleEndian.Uint32(rh[0:4])
		lsn := binary.LittleEndian.Uint64(rh[4:12])
		crc := binary.LittleEndian.Uint32(rh[12:16])
		if length > walMaxRecord || lsn != expect {
			return tear()
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return tear()
		}
		h := crc32.NewIEEE()
		h.Write(rh[4:12])
		h.Write(payload)
		if h.Sum32() != crc {
			return tear()
		}
		off += walRecHdrSize + int64(length)
		maxLSN = lsn
		expect = lsn + 1
	}
	return &walSegment{index: index, firstLSN: firstLSN, size: off}, maxLSN, nil
}

// syncDir fsyncs the WAL directory so segment creations and removals
// survive a crash.
func (w *WAL) syncDir() error {
	d, err := os.Open(w.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// newSegmentLocked creates the next segment file opening at firstLSN
// and makes it the append target. Caller holds w.mu (or is inside
// OpenWAL before the WAL is shared).
func (w *WAL) newSegmentLocked(firstLSN uint64) error {
	next := uint64(1)
	if n := len(w.segments); n > 0 {
		next = w.segments[n-1].index + 1
	}
	path := filepath.Join(w.dir, walSegName(next))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: wal create segment: %w", err)
	}
	var hdr [walSegHdrSize]byte
	copy(hdr[:8], walMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], firstLSN)
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(hdr[8:16]))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("storage: wal segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: wal segment header sync: %w", err)
	}
	if err := w.syncDir(); err != nil {
		f.Close()
		return fmt.Errorf("storage: wal dir sync: %w", err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f = f
	w.segments = append(w.segments, walSegment{index: next, firstLSN: firstLSN, size: walSegHdrSize})
	return nil
}

// Append logs one record and returns its LSN once it is durably on
// disk: the record is framed, written and fsynced under the log's
// mutex, and the tail rotates once it reaches the segment bound. An
// error poisons the log (see ErrWALPoisoned).
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	if len(payload) > walMaxRecord {
		return 0, fmt.Errorf("storage: wal record of %d bytes exceeds the %d byte bound", len(payload), walMaxRecord)
	}
	lsn := w.nextLSN
	var rh [walRecHdrSize]byte
	binary.LittleEndian.PutUint32(rh[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rh[4:12], lsn)
	h := crc32.NewIEEE()
	h.Write(rh[4:12])
	h.Write(payload)
	binary.LittleEndian.PutUint32(rh[12:16], h.Sum32())
	if err := w.commit(append(rh[:], payload...)); err != nil {
		w.err = fmt.Errorf("%w: %v", ErrWALPoisoned, err)
		return 0, w.err
	}
	w.nextLSN++
	w.stats.appends++
	if w.segments[len(w.segments)-1].size >= w.opts.segmentBytes() {
		if err := w.rotateLocked(); err != nil {
			w.err = fmt.Errorf("%w: %v", ErrWALPoisoned, err)
		}
	}
	return lsn, nil
}

// commit writes one framed record to the tail segment and syncs it.
// Caller holds w.mu.
func (w *WAL) commit(rec []byte) error {
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("storage: wal write: %w", err)
	}
	if h := w.opts.SyncHook; h != nil {
		if err := h(); err != nil {
			return fmt.Errorf("storage: wal sync hook: %w", err)
		}
	}
	if !w.opts.NoSync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("storage: wal sync: %w", err)
		}
		w.stats.syncs++
	}
	w.stats.appendedBytes += uint64(len(rec))
	w.segments[len(w.segments)-1].size += int64(len(rec))
	return nil
}

// rotateLocked opens a fresh tail segment. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if err := w.newSegmentLocked(w.nextLSN); err != nil {
		return err
	}
	w.stats.rotations++
	return nil
}

// Replay streams every surviving record with lsn >= from, in LSN
// order, to fn. A fn error stops the replay and is returned verbatim.
// Replay re-reads the segment files; records are validated again on
// the way through (the open already repaired the tail, so a failure
// here is corruption, not a tear).
func (w *WAL) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	segs := append([]walSegment(nil), w.segments...)
	w.mu.Unlock()
	for _, seg := range segs {
		if err := w.replaySegment(seg, from, fn); err != nil {
			return err
		}
	}
	return nil
}

func (w *WAL) replaySegment(seg walSegment, from uint64, fn func(uint64, []byte) error) error {
	f, err := os.Open(filepath.Join(w.dir, walSegName(seg.index)))
	if err != nil {
		return fmt.Errorf("storage: wal replay: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(walSegHdrSize, io.SeekStart); err != nil {
		return err
	}
	var rh [walRecHdrSize]byte
	for {
		if _, err := io.ReadFull(f, rh[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("%w: replay hit short record in segment %d", ErrWALCorrupt, seg.index)
		}
		length := binary.LittleEndian.Uint32(rh[0:4])
		lsn := binary.LittleEndian.Uint64(rh[4:12])
		crc := binary.LittleEndian.Uint32(rh[12:16])
		if length > walMaxRecord {
			return fmt.Errorf("%w: replay hit oversized record in segment %d", ErrWALCorrupt, seg.index)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return fmt.Errorf("%w: replay hit truncated record in segment %d", ErrWALCorrupt, seg.index)
		}
		h := crc32.NewIEEE()
		h.Write(rh[4:12])
		h.Write(payload)
		if h.Sum32() != crc {
			return fmt.Errorf("%w: replay checksum mismatch at lsn %d", ErrWALCorrupt, lsn)
		}
		if lsn >= from {
			if err := fn(lsn, payload); err != nil {
				return err
			}
		}
	}
}

// Checkpoint tells the log that every record with lsn <= applied is
// reflected in synced pages and metadata, and reclaims the segments
// that only hold such records. If the tail segment itself is fully
// applied it is rotated out and removed, so a long-checkpointed log
// occupies one near-empty segment.
func (w *WAL) Checkpoint(applied uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	// Segment i is disposable if everything it holds is <= applied,
	// i.e. the next segment starts at applied+1 or earlier.
	removed := false
	for len(w.segments) > 1 && w.segments[1].firstLSN <= applied+1 {
		if err := w.removeSegmentLocked(0); err != nil {
			return err
		}
		removed = true
	}
	if len(w.segments) == 1 && w.nextLSN-1 <= applied && w.segments[0].size > walSegHdrSize {
		// The tail itself is fully applied: rotate a fresh segment in
		// and drop the old tail.
		if err := w.rotateLocked(); err != nil {
			return err
		}
		if err := w.removeSegmentLocked(0); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		w.stats.checkpoints++
		if err := w.syncDir(); err != nil {
			return err
		}
	}
	return nil
}

// removeSegmentLocked deletes segment i (never the open tail unless a
// replacement was rotated in first). Caller holds w.mu.
func (w *WAL) removeSegmentLocked(i int) error {
	seg := w.segments[i]
	if err := os.Remove(filepath.Join(w.dir, walSegName(seg.index))); err != nil {
		return fmt.Errorf("storage: wal remove segment: %w", err)
	}
	w.segments = append(w.segments[:i], w.segments[i+1:]...)
	return nil
}

// Reset discards every record and restarts the log at firstLSN. Build
// uses it: a freshly built index makes any older log meaningless.
func (w *WAL) Reset(firstLSN uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if firstLSN == 0 {
		firstLSN = 1
	}
	for len(w.segments) > 0 {
		if err := w.removeSegmentLocked(0); err != nil {
			return err
		}
	}
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.nextLSN = firstLSN
	w.err = nil
	if err := w.newSegmentLocked(firstLSN); err != nil {
		return err
	}
	return w.syncDir()
}

// LastLSN returns the highest LSN assigned so far (0 = none).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// Size returns the total bytes held by the live segment files.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sizeLocked()
}

func (w *WAL) sizeLocked() int64 {
	var n int64
	for _, s := range w.segments {
		n += s.size
	}
	return n
}

// Dir returns the log's directory.
func (w *WAL) Dir() string { return w.dir }

// Stats returns a snapshot of the log's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Appends:          w.stats.appends,
		Syncs:            w.stats.syncs,
		Bytes:            w.sizeLocked(),
		AppendedBytes:    w.stats.appendedBytes,
		Segments:         len(w.segments),
		Rotations:        w.stats.rotations,
		Checkpoints:      w.stats.checkpoints,
		TornTailRepaired: w.stats.tornRepaired,
		LastLSN:          w.nextLSN - 1,
	}
}

// Close closes the log. Records already acknowledged stay durable;
// Close never needs to flush because Append only returns after its
// record is synced, and an append racing a Close either completes
// first or observes the closed log. Close is idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f != nil {
		return w.f.Close()
	}
	return nil
}
