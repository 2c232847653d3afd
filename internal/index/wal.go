package index

import (
	"errors"
	"fmt"
	"time"

	"sama/internal/rdf"
	"sama/internal/storage"
)

// This file holds the index side of the durable write path: the triple
// batch codec the WAL records use, the applied-LSN watermark tracker,
// the checkpoint protocol, and the replay Open runs.
//
// The invariant everything here maintains: at any instant the on-disk
// state (pages + metadata checkpoint, which carries the data graph) plus
// the WAL suffix after the metadata's applied watermark replays to an
// index answering exactly like one that never crashed. Replay is
// idempotent — re-applying a batch re-enumerates the same roots into the
// same records, which keep their IDs — so the watermark may lag the
// truth safely.

// DefaultCheckpointBytes is the WAL size that triggers an automatic
// checkpoint after an insert.
const DefaultCheckpointBytes = 16 << 20

// ---- triple batch codec ------------------------------------------------

// tripleCodecVersion versions the WAL payload format.
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

// last returns the highest LSN marked applied: the watermark, or a
// straggler past it.
func (t *lsnTracker) last() uint64 {
	last := t.watermark
	for lsn := range t.done {
		last = max(last, lsn)
	}
	return last
}

// ---- checkpoint --------------------------------------------------------

// checkpointLocked makes the applied watermark durable and reclaims
// the WAL prefix below it. The order is load-bearing:
//
//  1. flush the buffer pool (pages reach the disk, fsynced);
//  2. write the metadata (temp file + fsync + rename), which records
//     the watermark and the data graph: this is the atomic commit point
//     of the checkpoint;
//  3. truncate the WAL below the watermark;
//  4. seal the record store's current page, so pages holding only
//     checkpointed (no longer replayable) records are never rewritten —
//     a torn page write can then only hit records the WAL can restore.
//
// A crash between any two steps is safe: before 2 the old metadata
// still pairs with the untruncated WAL; after 2 the new metadata pairs
// with a WAL whose stale prefix is skipped by the watermark.
func (ix *Index) checkpointLocked() error {
	if ix.wal == nil {
		return nil
	}
	if err := ix.pool.Flush(); err != nil {
		return fmt.Errorf("index: checkpoint flush: %w", err)
	}
	if err := ix.writeMeta(); err != nil {
		return fmt.Errorf("index: checkpoint meta: %w", err)
	}
	if err := ix.wal.Checkpoint(ix.applied.watermark); err != nil {
		return fmt.Errorf("index: checkpoint wal: %w", err)
	}
	ix.store.SealCurrentPage()
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

// ---- replay ------------------------------------------------------------

// RecoveryStats reports what Open replayed from the WAL.
type RecoveryStats struct {
	// Records is the number of WAL records replayed.
	Records int `json:"records"`
	// Triples is the number of triples those records carried.
	Triples int `json:"triples"`
	// TornTailRepaired reports that the WAL open truncated a
	// half-written record instead of replaying it.
	TornTailRepaired bool `json:"torn_tail_repaired"`
	// Replay is the wall-clock time the replay and its checkpoint took.
	Replay time.Duration `json:"replay_ns"`
}

// Recovery returns what Open replayed from the WAL (zero without one).
func (ix *Index) Recovery() RecoveryStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.recovery
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

// openWAL attaches the log during Open and replays it: the segments are
// scanned (a torn tail is truncated, never replayed), LSN continuity
// with the metadata's watermark is enforced, the records past the
// watermark are applied to the metadata's graph in LSN order, and a
// checkpoint makes the result durable.
func (ix *Index) openWAL(opts Options) error {
	w, err := storage.OpenWAL(ix.walDir, storage.WALOptions{
		SegmentBytes: opts.WALSegmentBytes,
		MinNextLSN:   ix.applied.watermark + 1,
		SyncHook:     opts.WALSyncHook,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	ix.wal = w
	rs, err := ix.replayLocked(ix.applied.watermark+1, w.LastLSN())
	if err == nil && rs.Records > 0 {
		err = ix.checkpointLocked()
	}
	if err != nil {
		w.Close()
		return err
	}
	rs.TornTailRepaired = w.Stats().TornTailRepaired
	rs.Replay = time.Since(start)
	ix.recovery = rs
	return nil
}

// errReplayDone stops a replay at its last record.
var errReplayDone = errors.New("replay done")

// replayLocked re-applies the logged batches with LSNs in [from, to],
// in LSN order, marking each applied. It reads no record past to, so a
// commit in flight beyond it cannot be mistaken for a torn one.
func (ix *Index) replayLocked(from, to uint64) (RecoveryStats, error) {
	var rs RecoveryStats
	err := ix.wal.Replay(from, func(lsn uint64, payload []byte) error {
		if lsn > to {
			return errReplayDone
		}
		ts, err := decodeTriples(payload)
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", storage.ErrWALCorrupt, lsn, err)
		}
		if err := ix.applyTriplesLocked(ts); err != nil {
			return fmt.Errorf("index: replay lsn %d: %w", lsn, err)
		}
		ix.applied.mark(lsn)
		rs.Records++
		rs.Triples += len(ts)
		if lsn == to {
			return errReplayDone
		}
		return nil
	})
	if errors.Is(err, errReplayDone) {
		err = nil
	}
	return rs, err
}
