package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"sama/internal/rdf"
	"sama/internal/storage"
)

// This file holds the index side of the durable write path: the triple
// batch codec the WAL records use, the delta sidecar that lets a
// reopened index rebuild the attached graph, the applied-LSN watermark
// tracker, the checkpoint protocol, and Recover.
//
// The invariant everything here maintains: at any instant the on-disk
// state (pages + metadata checkpoint) plus the WAL suffix after the
// metadata's applied watermark replays to an index answering exactly
// like one that never crashed. Replay is idempotent — re-applying a
// batch re-enumerates the same roots into the same records, which keep
// their IDs — so the watermark may lag the truth safely.

// ErrNeedsRecovery is returned by InsertTriples on a WAL-enabled index
// that was reopened but not yet recovered (see Recover).
var ErrNeedsRecovery = errors.New("index: wal recovery pending; call Recover with the data graph before writing")

// DefaultCheckpointBytes is the WAL size that triggers an automatic
// checkpoint after an insert.
const DefaultCheckpointBytes = 16 << 20

func sidecarPath(base string) string { return base + ".delta" }

// ---- triple batch codec ------------------------------------------------

// tripleCodecVersion versions the WAL payload / sidecar frame format.
const tripleCodecVersion = 1

// encodeTriples serialises one insert batch into a WAL payload. Terms
// are spelled out (codec.go's appendTerm), as they are in the
// dictionary: a record must replay against any dictionary.
func encodeTriples(ts []rdf.Triple) []byte {
	b := make([]byte, 0, 64*len(ts)+8)
	b = append(b, tripleCodecVersion)
	b = appendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = appendTerm(b, t.S)
		b = appendTerm(b, t.P)
		b = appendTerm(b, t.O)
	}
	return b
}

// decodeTriples parses a WAL payload back into the insert batch.
func decodeTriples(data []byte) ([]rdf.Triple, error) {
	if len(data) == 0 || data[0] != tripleCodecVersion {
		return nil, fmt.Errorf("index: triple codec: unsupported version")
	}
	d := &decoder{buf: data, pos: 1}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	ts := make([]rdf.Triple, 0, n)
	for i := uint64(0); i < n; i++ {
		var t rdf.Triple
		if t.S, err = d.term(); err != nil {
			return nil, err
		}
		if t.P, err = d.term(); err != nil {
			return nil, err
		}
		if t.O, err = d.term(); err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// ---- delta sidecar -----------------------------------------------------

// The sidecar solves recovery's missing input: WAL replay needs the
// data graph, and the graph is not persisted with the index. At every
// checkpoint the triples applied since the previous checkpoint are
// appended to <base>.delta (fsynced, BEFORE the WAL is truncated), so
//
//	source graph + sidecar + pending WAL records = the indexed graph
//
// always holds. Frames are [len u32][crc u32][payload] with the same
// triple codec as WAL records. Duplicate triples across frames are
// harmless: graph edge insertion deduplicates.
//
// Between compactions the file is append-only, growing by one frame
// per checkpoint; CompactIncremental rewrites it as a single
// deduplicated frame (see rewriteSidecar), so its size — and the
// re-read cost every Recover pays — is bounded by the distinct triples
// inserted since the source graph, not by checkpoint count.

const sidecarHdrSize = 8

func appendSidecar(path string, ts []rdf.Triple) error {
	payload := encodeTriples(ts)
	frame := make([]byte, sidecarHdrSize, sidecarHdrSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("index: sidecar open: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(frame); err != nil {
		return fmt.Errorf("index: sidecar append: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("index: sidecar sync: %w", err)
	}
	return nil
}

// rewriteSidecar atomically replaces the sidecar with a single frame
// holding ts: the bytes go to a temp file, are fsynced, and renamed
// over the old sidecar (the directory is fsynced after). An empty ts
// removes the file. Compaction uses this to stop the sidecar growing
// by a frame per checkpoint forever.
func rewriteSidecar(path string, ts []rdf.Triple) error {
	if len(ts) == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("index: sidecar remove: %w", err)
		}
		return nil
	}
	payload := encodeTriples(ts)
	frame := make([]byte, sidecarHdrSize, sidecarHdrSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("index: sidecar rewrite: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("index: sidecar rewrite: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("index: sidecar rewrite sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: sidecar rewrite close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: sidecar rewrite rename: %w", err)
	}
	return syncDirOf(path)
}

// dedupTriples drops repeated triples, keeping first-occurrence order.
func dedupTriples(ts []rdf.Triple) []rdf.Triple {
	seen := make(map[rdf.Triple]struct{}, len(ts))
	out := make([]rdf.Triple, 0, len(ts))
	for _, t := range ts {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// loadSidecar reads every complete frame from the sidecar, truncating
// a torn tail (a crash mid-append) so later appends land after valid
// data. A missing sidecar is an empty one.
func loadSidecar(path string) ([]rdf.Triple, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("index: sidecar open: %w", err)
	}
	defer f.Close()
	var out []rdf.Triple
	off := int64(0)
	var hdr [sidecarHdrSize]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			break // torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			break // torn (crash mid-overwrite is impossible: append-only)
		}
		ts, err := decodeTriples(payload)
		if err != nil {
			return nil, fmt.Errorf("index: sidecar frame at %d: %w", off, err)
		}
		out = append(out, ts...)
		off += sidecarHdrSize + int64(length)
	}
	// A torn tail means the crash hit between the sidecar append and
	// the metadata write of a checkpoint — the triples in the torn
	// frame are still in the WAL and will be replayed. Truncate so the
	// next checkpoint appends after valid frames.
	if err := f.Truncate(off); err != nil {
		return nil, fmt.Errorf("index: sidecar truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("index: sidecar sync: %w", err)
	}
	return out, nil
}

// ---- applied-LSN tracking ----------------------------------------------

// lsnTracker maintains the contiguous-applied watermark: the highest
// LSN such that every record at or below it has been applied. Group
// commit hands records to appliers in LSN order, but the index lock is
// acquired per-insert, so applies can complete out of order; the
// tracker holds the stragglers until the prefix is contiguous. The
// checkpoint truncates the WAL at the watermark, never past a record
// still in flight.
type lsnTracker struct {
	watermark uint64
	done      map[uint64]struct{}
}

func (t *lsnTracker) mark(lsn uint64) {
	if lsn <= t.watermark {
		return
	}
	if t.done == nil {
		t.done = make(map[uint64]struct{})
	}
	t.done[lsn] = struct{}{}
	for {
		if _, ok := t.done[t.watermark+1]; !ok {
			return
		}
		delete(t.done, t.watermark+1)
		t.watermark++
	}
}

// ---- checkpoint --------------------------------------------------------

// checkpointLocked makes the applied watermark durable and reclaims
// the WAL prefix below it. The order is load-bearing:
//
//  1. flush the buffer pool (pages reach the disk, fsynced);
//  2. append the since-checkpoint triples to the sidecar (fsynced) —
//     must precede the WAL truncation or a crash loses the graph delta;
//  3. write the metadata (temp file + fsync + rename), which records
//     the watermark: this is the atomic commit point of the checkpoint;
//  4. truncate the WAL below the watermark;
//  5. seal the record store's current page, so pages holding only
//     checkpointed (no longer replayable) records are never rewritten —
//     a torn page write can then only hit records the WAL can restore.
//
// A crash between any two steps is safe: before 3 the old metadata
// still pairs with the untruncated WAL; after 3 the new metadata pairs
// with a WAL whose stale prefix is skipped by the watermark.
func (ix *Index) checkpointLocked() error {
	if ix.wal == nil {
		return nil
	}
	if err := ix.pool.Flush(); err != nil {
		return fmt.Errorf("index: checkpoint flush: %w", err)
	}
	if len(ix.sinceCheckpoint) > 0 {
		if err := appendSidecar(sidecarPath(ix.base), ix.sinceCheckpoint); err != nil {
			return err
		}
	}
	if err := ix.writeMeta(); err != nil {
		return fmt.Errorf("index: checkpoint meta: %w", err)
	}
	if err := ix.wal.Checkpoint(ix.applied.watermark); err != nil {
		return fmt.Errorf("index: checkpoint wal: %w", err)
	}
	ix.store.SealCurrentPage()
	ix.sinceCheckpoint = nil
	if ix.logWAL != nil {
		ix.logWAL.Info("checkpoint",
			"applied_lsn", ix.applied.watermark,
			"wal_bytes", ix.wal.Size())
	}
	return nil
}

// Checkpoint forces a checkpoint: pages and metadata are made durable
// and the WAL's applied prefix is reclaimed. A no-op without a WAL.
func (ix *Index) Checkpoint() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.checkpointLocked()
}

// ---- recovery ----------------------------------------------------------

// walPending is one WAL record decoded at Open, awaiting Recover.
type walPending struct {
	lsn uint64
	ts  []rdf.Triple
}

// RecoveryStats reports what Recover did.
type RecoveryStats struct {
	// SidecarTriples were merged into the graph from the delta sidecar
	// (already reflected in the checkpointed index).
	SidecarTriples int `json:"sidecar_triples"`
	// Records is the number of WAL records replayed.
	Records int `json:"records"`
	// Triples is the number of triples those records carried.
	Triples int `json:"triples"`
	// TornTailRepaired reports that the WAL open truncated a
	// half-written record instead of replaying it.
	TornTailRepaired bool `json:"torn_tail_repaired"`
	// Replay is the wall-clock time recovery took.
	Replay time.Duration `json:"replay_ns"`
}

// NeedsRecovery returns the number of WAL records waiting to be
// replayed, or -1 if the index has no WAL or is already recovered. A
// WAL-enabled index opened from disk always needs Recover before its
// first insert, even when zero records are pending (the graph must be
// completed with the sidecar delta).
func (ix *Index) NeedsRecovery() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.recoverNeeded {
		return -1
	}
	return len(ix.pending)
}

// Recover hands a reopened WAL-enabled index its data graph and
// replays the pending WAL suffix: the delta sidecar's triples are
// merged into g (their paths are already in the checkpointed index),
// then each pending record is re-applied in LSN order, and a
// checkpoint makes the recovered state durable. The graph is retained,
// as AttachGraph would. Recover on an index without a WAL is
// equivalent to AttachGraph.
func (ix *Index) Recover(g *rdf.Graph) (RecoveryStats, error) {
	start := time.Now()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var rs RecoveryStats
	if ix.wal == nil {
		ix.graph = g
		ix.hubRooted = len(g.Sources()) == 0
		ix.recoverNeeded = false
		return rs, nil
	}
	side, err := loadSidecar(sidecarPath(ix.base))
	if err != nil {
		return rs, err
	}
	for _, t := range side {
		g.AddTriple(t)
	}
	rs.SidecarTriples = len(side)
	ix.graph = g
	// Replay evolves the flag per batch exactly as the original applies
	// did; seed it from the sidecar-completed graph.
	ix.hubRooted = len(g.Sources()) == 0
	for _, rec := range ix.pending {
		if err := ix.applyTriplesLocked(rec.ts); err != nil {
			return rs, fmt.Errorf("index: replay lsn %d: %w", rec.lsn, err)
		}
		ix.applied.mark(rec.lsn)
		ix.sinceCheckpoint = append(ix.sinceCheckpoint, rec.ts...)
		rs.Records++
		rs.Triples += len(rec.ts)
	}
	ix.pending = nil
	ix.recoverNeeded = false
	rs.TornTailRepaired = ix.wal.Stats().TornTailRepaired
	if rs.Records > 0 {
		if err := ix.checkpointLocked(); err != nil {
			return rs, err
		}
	}
	rs.Replay = time.Since(start)
	if ix.logWAL != nil {
		ix.logWAL.Info("recovery replayed",
			"records", rs.Records,
			"triples", rs.Triples,
			"sidecar_triples", rs.SidecarTriples,
			"torn_tail_repaired", rs.TornTailRepaired,
			"replay", rs.Replay)
	}
	return rs, nil
}

// WALStats returns a snapshot of the WAL counters; ok is false when
// the index has no WAL.
func (ix *Index) WALStats() (st storage.WALStats, ok bool) {
	ix.mu.RLock()
	w := ix.wal
	ix.mu.RUnlock()
	if w == nil {
		return storage.WALStats{}, false
	}
	return w.Stats(), true
}

// openWAL attaches the log during Open: the segments are scanned (torn
// tail repaired), LSN continuity with the metadata's watermark is
// enforced, and records after the watermark are decoded into the
// pending list for Recover.
func (ix *Index) openWAL(opts Options) error {
	w, err := storage.OpenWAL(ix.walDir, storage.WALOptions{
		SegmentBytes: opts.WALSegmentBytes,
		MinNextLSN:   ix.applied.watermark + 1,
		SyncHook:     opts.WALSyncHook,
	})
	if err != nil {
		return err
	}
	err = w.Replay(ix.applied.watermark+1, func(lsn uint64, payload []byte) error {
		ts, derr := decodeTriples(payload)
		if derr != nil {
			return fmt.Errorf("%w: record %d: %v", storage.ErrWALCorrupt, lsn, derr)
		}
		ix.pending = append(ix.pending, walPending{lsn: lsn, ts: ts})
		return nil
	})
	if err != nil {
		w.Close()
		return err
	}
	ix.wal = w
	ix.recoverNeeded = true
	return nil
}
