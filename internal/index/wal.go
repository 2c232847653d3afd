package index

import (
	"fmt"
	"time"

	"sama/internal/rdf"
	"sama/internal/storage"
)

// This file holds the index side of the write path: the triple batch
// codec the WAL records use, the checkpoint protocol, and the replay
// Open runs.
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

// ---- checkpoint --------------------------------------------------------

// checkpointLocked makes the applied watermark durable and discards the
// log, every record of which it covers. The order is load-bearing:
//
//  1. flush the buffer pool (pages reach the disk, fsynced);
//  2. write the metadata (temp file + fsync + rename), which records
//     the watermark and the data graph: this is the atomic commit point
//     of the checkpoint;
//  3. rewrite the WAL to a fresh header at the next LSN;
//  4. seal the record store's current page, so pages holding only
//     checkpointed (no longer replayable) records are never rewritten —
//     a torn page write can then only hit records the WAL can restore.
//
// Stats().DiskBytes is refreshed after step 2; the log is left out of
// it, being transient. A crash between any two steps is safe: before 2
// the old metadata still pairs with the old log; after 2 the new
// metadata pairs with either the old log, whose records the watermark
// skips, or the fresh one.
func (ix *Index) checkpointLocked() error {
	if err := ix.pool.Flush(); err != nil {
		return fmt.Errorf("index: checkpoint flush: %w", err)
	}
	if err := ix.writeMeta(); err != nil {
		return fmt.Errorf("index: checkpoint meta: %w", err)
	}
	ix.stats.DiskBytes = ix.diskBytes()
	if err := ix.wal.Checkpoint(ix.applied); err != nil {
		return fmt.Errorf("index: checkpoint wal: %w", err)
	}
	ix.store.SealCurrentPage()
	return nil
}

// Checkpoint forces a checkpoint: pages and metadata are made durable
// and the WAL's records are discarded. It is the one way to persist
// the index short of Close.
func (ix *Index) Checkpoint() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
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

// Recovery returns what Open replayed from the WAL (zero after Build
// or a clean Close).
func (ix *Index) Recovery() RecoveryStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.recovery
}

// WALStats returns a snapshot of the WAL counters.
func (ix *Index) WALStats() storage.WALStats { return ix.wal.Stats() }

// openWAL attaches the log during Open and replays it: the log is
// scanned (a torn tail is truncated, never replayed), its LSNs are
// kept above the metadata's watermark, the records past the watermark
// are applied to the metadata's graph in LSN order, and a checkpoint
// makes the result durable.
func (ix *Index) openWAL() error {
	w, err := storage.OpenWAL(walPath(ix.base), storage.WALOptions{
		MinNextLSN: ix.applied + 1,
		SyncHook:   ix.opts.WALSyncHook,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	ix.wal = w
	rs, err := ix.replayLocked(ix.applied + 1)
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

// replayLocked re-applies the logged batches from LSN from to the
// log's last acknowledged one, in LSN order, marking each applied.
func (ix *Index) replayLocked(from uint64) (RecoveryStats, error) {
	var rs RecoveryStats
	err := ix.wal.Replay(from, func(lsn uint64, payload []byte) error {
		ts, err := decodeTriples(payload)
		if err != nil {
			return fmt.Errorf("%w: record %d: %v", storage.ErrWALCorrupt, lsn, err)
		}
		if err := ix.applyTriplesLocked(ts); err != nil {
			return fmt.Errorf("index: replay lsn %d: %w", lsn, err)
		}
		ix.applied = lsn
		rs.Records++
		rs.Triples += len(ts)
		return nil
	})
	return rs, err
}
