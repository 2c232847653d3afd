package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// This file implements the write-ahead log behind the index's durable
// write path. The log is one file, wal.log in its directory: a header
// followed by length+LSN+CRC32-framed records. Mutations are logged
// (and fsynced) before any page is touched, so a crash at any point
// leaves the pages+metadata checkpoint plus a replayable suffix of
// records; Open replays the suffix and the index converges to the
// pre-crash state. Each Append frames, writes and fsyncs its record
// under the log's mutex. The index holds one writer at a time, so no
// two appends ever have a sync to share, and a checkpoint always
// covers every record: it discards the whole log, replacing the file
// with a fresh header.
//
// Torn tails — a crash mid-append leaves a half-written record at the
// end of the log — are detected by the CRC/length framing and
// truncated on open, never replayed. Every record is fsynced before the
// next is written, so only the last one can be torn: a bad record with
// a well-formed next record after it, or a bad header with anything
// after it, is not a tear and surfaces as ErrWALCorrupt.

// ErrWALCorrupt marks WAL damage that cannot be explained by a crash
// mid-append: replaying past it could resurrect arbitrary garbage, so
// the open fails instead.
var ErrWALCorrupt = errors.New("storage: wal corrupt")

// ErrWALPoisoned is returned by appends after a WAL write or sync has
// failed. A failed fsync leaves the kernel free to drop the dirty
// pages, so the log's durable prefix is unknown; the only safe move is
// to stop accepting writes (no silent retry) until the WAL is reopened.
var ErrWALPoisoned = errors.New("storage: wal poisoned by an earlier write or sync failure")

// walMagic identifies a WAL file.
var walMagic = [8]byte{'S', 'A', 'M', 'A', 'W', 'A', 'L', '1'}

const (
	// walFile is the log's name in its directory, and walTmp the name a
	// fresh header is written under before it replaces the log.
	walFile = "wal.log"
	walTmp  = "wal.log.tmp"
	// walHdrSize is the file header: magic(8) + firstLSN(8) + crc32
	// over firstLSN (4).
	walHdrSize = 20
	// walRecHdrSize is the record frame header: payload length(4) +
	// LSN(8) + crc32 over LSN+payload (4).
	walRecHdrSize = 16
	// walMaxRecord bounds one record's payload, so a torn length field
	// cannot make the scanner allocate gigabytes.
	walMaxRecord = 64 << 20
)

// WALOptions configure OpenWAL.
type WALOptions struct {
	// MinNextLSN forces the next assigned LSN to be at least this
	// value. The index passes appliedLSN+1 so that a WAL directory
	// that was deleted out from under a checkpointed index can never
	// re-issue an LSN the metadata already claims to have applied.
	MinNextLSN uint64
	// NoSync skips every fsync. FuzzOpenWAL sets it, to run many opens
	// per second; never in production.
	NoSync bool
	// SyncHook, when set, runs immediately before each fsync of the log
	// — an append's commit and a fresh header's (even with NoSync) —
	// under the log's mutex, so it must not call the log. Tests use it
	// to snapshot the on-disk state "during" the fsync for crash-matrix
	// kill points; an error from the hook fails the append exactly like
	// a sync failure, poisoning the log, and fails a header rewrite
	// with the old log left in place.
	SyncHook func() error
}

// WALStats is a snapshot of the log's counters.
type WALStats struct {
	// Appends is the number of records appended.
	Appends uint64 `json:"appends"`
	// Syncs is the number of commit fsyncs: one per append (none with
	// NoSync).
	Syncs uint64 `json:"syncs"`
	// Bytes is the size of the log file: its header and the records
	// appended since the last checkpoint.
	Bytes int64 `json:"bytes"`
	// AppendedBytes counts every byte ever written, across checkpoints.
	AppendedBytes uint64 `json:"appended_bytes"`
	// Checkpoints counts Checkpoint calls that discarded at least one
	// record.
	Checkpoints uint64 `json:"checkpoints"`
	// TornTailRepaired reports that the last OpenWAL truncated a
	// half-written record off the log, or replaced a half-written
	// header.
	TornTailRepaired bool `json:"torn_tail_repaired"`
	// LastLSN is the highest LSN assigned so far (0 = none).
	LastLSN uint64 `json:"last_lsn"`
}

// WAL is a single-file write-ahead log. It is safe for concurrent use;
// Append holds the log's mutex across its write and fsync.
type WAL struct {
	mu   sync.Mutex
	dir  string
	opts WALOptions
	f    *os.File // the log, open for append
	size int64    // bytes in the log: header and records

	nextLSN uint64 // the LSN the next appended record gets

	err    error // sticky poison after a failed write or sync
	closed bool

	stats struct {
		appends       uint64
		syncs         uint64
		appendedBytes uint64
		checkpoints   uint64
		tornRepaired  bool
	}
}

// OpenWAL opens (creating if needed) the write-ahead log in dir. Every
// record frame is validated: a torn tail is truncated away (recorded in
// Stats().TornTailRepaired), and damage before it fails with
// ErrWALCorrupt, leaving the file as it was. The log is then positioned
// to append after the highest surviving LSN.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: wal dir: %w", err)
	}
	// Earlier builds split the log into wal-NNNNNNNN.log segments;
	// starting a fresh log beside them would drop their records.
	if old, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(old) > 0 {
		return nil, fmt.Errorf("storage: wal %s: segmented logs are no longer read: open and close the index with the build that wrote it, then remove the segment files", old[0])
	}
	// A temporary left by a crash mid-rewrite never replaced the log.
	if err := os.Remove(filepath.Join(dir, walTmp)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("storage: wal remove stray temporary: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, nextLSN: max(opts.MinNextLSN, 1)}
	if err := w.scan(); err != nil {
		if w.f != nil {
			w.f.Close()
		}
		return nil, err
	}
	return w, nil
}

// scan validates the log and positions it for appending. It is the one
// place that decides whether damage is a torn tail: it stops at the
// first frame that is short, oversized, out of LSN sequence or fails
// its CRC. If a well-formed frame with the next LSN starts where that
// frame's declared length ends, the damage hit an acknowledged record
// and the open fails; otherwise the frame is a torn tail and is
// truncated off. A bad header is a torn create or rewrite when nothing
// follows it, and corruption when anything does.
func (w *WAL) scan() error {
	path := filepath.Join(w.dir, walFile)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return w.rewriteLocked(w.nextLSN)
	}
	if err != nil {
		return fmt.Errorf("storage: wal open: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: wal stat: %w", err)
	}
	size := info.Size()
	first, ok := readWALHeader(f)
	if !ok {
		f.Close()
		if size > walHdrSize {
			return fmt.Errorf("%w: %s: bad header with %d bytes after it", ErrWALCorrupt, path, size-walHdrSize)
		}
		w.stats.tornRepaired = true
		return w.rewriteLocked(w.nextLSN)
	}
	w.f = f
	off, lsn := int64(walHdrSize), first
	for off < size {
		_, end, ok := readWALFrame(f, off, size, lsn)
		if !ok {
			if _, _, next := readWALFrame(f, end, size, lsn+1); next {
				return fmt.Errorf("%w: %s: record %d at offset %d is damaged and record %d follows it", ErrWALCorrupt, path, lsn, off, lsn+1)
			}
			if err := f.Truncate(off); err != nil {
				return fmt.Errorf("storage: wal truncate torn tail: %w", err)
			}
			w.stats.tornRepaired = true
			break
		}
		off, lsn = end, lsn+1
	}
	if lsn < w.nextLSN {
		// Every record here is below the floor, so already applied:
		// restart the log at the floor rather than append out of order.
		return w.rewriteLocked(w.nextLSN)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("storage: wal seek: %w", err)
	}
	w.size, w.nextLSN = off, lsn
	return nil
}

// readWALHeader reads the log header, returning its first LSN; ok is
// false if the header is short, lacks the magic, fails its checksum or
// opens at LSN 0 (LSNs start at 1).
func readWALHeader(r io.ReaderAt) (first uint64, ok bool) {
	var hdr [walHdrSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return 0, false
	}
	first = binary.LittleEndian.Uint64(hdr[8:16])
	ok = [8]byte(hdr[:8]) == walMagic && first != 0 &&
		crc32.ChecksumIEEE(hdr[8:16]) == binary.LittleEndian.Uint32(hdr[16:20])
	return first, ok
}

// readWALFrame reads the frame at off of a log of size bytes and checks
// that it is whole, carries lsn and passes its CRC. end is where the
// frame's length field says it ends (off when the frame header itself
// is short), whether or not the frame is well-formed.
func readWALFrame(r io.ReaderAt, off, size int64, lsn uint64) (payload []byte, end int64, ok bool) {
	var rh [walRecHdrSize]byte
	if off+walRecHdrSize > size {
		return nil, off, false
	}
	if _, err := r.ReadAt(rh[:], off); err != nil {
		return nil, off, false
	}
	length := binary.LittleEndian.Uint32(rh[0:4])
	end = off + walRecHdrSize + int64(length)
	if length > walMaxRecord || end > size || binary.LittleEndian.Uint64(rh[4:12]) != lsn {
		return nil, end, false
	}
	payload = make([]byte, length)
	if _, err := r.ReadAt(payload, off+walRecHdrSize); err != nil {
		return nil, end, false
	}
	h := crc32.NewIEEE()
	h.Write(rh[4:12])
	h.Write(payload)
	return payload, end, h.Sum32() == binary.LittleEndian.Uint32(rh[12:16])
}

// rewriteLocked replaces the log with a fresh header opening at first,
// discarding every record. The header is written to a temporary file
// and fsynced, then renamed over the log, so a crash leaves the old log
// or the new one, plus at most a stray temporary the next open removes.
// A failure before the rename leaves the old log in use; one after it
// poisons the log. Caller holds w.mu (or is inside OpenWAL).
func (w *WAL) rewriteLocked(first uint64) error {
	tmp := filepath.Join(w.dir, walTmp)
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: wal create: %w", err)
	}
	hdr := binary.LittleEndian.AppendUint64(walMagic[:], first)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr[8:16]))
	err = w.writeSync(f, hdr)
	if err == nil {
		err = os.Rename(tmp, filepath.Join(w.dir, walFile))
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: wal header: %w", err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.size, w.nextLSN = f, walHdrSize, first
	if err := w.syncDir(); err != nil {
		w.err = fmt.Errorf("%w: wal dir sync: %v", ErrWALPoisoned, err)
		return w.err
	}
	return nil
}

// writeSync writes b at f's offset and makes it durable: the SyncHook
// runs, then the fsync (none with NoSync).
func (w *WAL) writeSync(f *os.File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return fmt.Errorf("storage: wal write: %w", err)
	}
	if h := w.opts.SyncHook; h != nil {
		if err := h(); err != nil {
			return fmt.Errorf("storage: wal sync hook: %w", err)
		}
	}
	if w.opts.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: wal sync: %w", err)
	}
	return nil
}

// syncDir fsyncs the WAL directory so the log's replacement survives a
// crash.
func (w *WAL) syncDir() error {
	if w.opts.NoSync {
		return nil
	}
	d, err := os.Open(w.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Append logs one record and returns its LSN once it is durably on
// disk: the record is framed, written and fsynced under the log's
// mutex. An error poisons the log (see ErrWALPoisoned).
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
	rec := append(rh[:], payload...)
	if err := w.writeSync(w.f, rec); err != nil {
		w.err = fmt.Errorf("%w: %v", ErrWALPoisoned, err)
		return 0, w.err
	}
	if !w.opts.NoSync {
		w.stats.syncs++
	}
	w.stats.appendedBytes += uint64(len(rec))
	w.size += int64(len(rec))
	w.nextLSN++
	w.stats.appends++
	return lsn, nil
}

// Replay streams every acknowledged record with lsn >= from, in LSN
// order, to fn. A fn error stops the replay and is returned verbatim.
// Replay re-reads the log and stops at LastLSN, so a frame a failed
// append left behind is never read; records are validated again on the
// way through (the open already repaired the tail, so a failure here
// is corruption, not a tear).
func (w *WAL) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	last := w.nextLSN - 1
	w.mu.Unlock()
	f, err := os.Open(filepath.Join(w.dir, walFile))
	if err != nil {
		return fmt.Errorf("storage: wal replay: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("storage: wal replay: %w", err)
	}
	first, ok := readWALHeader(f)
	if !ok {
		return fmt.Errorf("%w: replay hit a bad header", ErrWALCorrupt)
	}
	off := int64(walHdrSize)
	for lsn := first; lsn <= last; lsn++ {
		payload, end, ok := readWALFrame(f, off, info.Size(), lsn)
		if !ok {
			return fmt.Errorf("%w: replay hit a damaged record %d", ErrWALCorrupt, lsn)
		}
		if lsn >= from {
			if err := fn(lsn, payload); err != nil {
				return err
			}
		}
		off = end
	}
	return nil
}

// Checkpoint tells the log that every record it holds, up to applied,
// is reflected in synced pages and metadata, and discards them all by
// rewriting the log to a fresh header at the next LSN. The index
// checkpoints under its one writer, after the last append was applied,
// so applied is LastLSN; a checkpoint that would discard unapplied
// records is refused, as is one on a poisoned log, and the file is
// left as it is.
func (w *WAL) Checkpoint(applied uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	if last := w.nextLSN - 1; applied < last {
		return fmt.Errorf("storage: wal checkpoint at lsn %d would discard records up to %d", applied, last)
	}
	if w.size == walHdrSize {
		return nil
	}
	if err := w.rewriteLocked(w.nextLSN); err != nil {
		return err
	}
	w.stats.checkpoints++
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
	w.err = nil
	return w.rewriteLocked(max(firstLSN, 1))
}

// Size returns the size of the log file.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Stats returns a snapshot of the log's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Appends:          w.stats.appends,
		Syncs:            w.stats.syncs,
		Bytes:            w.size,
		AppendedBytes:    w.stats.appendedBytes,
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
