package index

import (
	"context"
	"fmt"
	"os"
	"time"

	"sama/internal/paths"
	"sama/internal/storage"
	"sama/internal/textindex"
)

// DefaultCompactBatch is the number of live paths copied per bounded
// step of an incremental compaction.
const DefaultCompactBatch = 1024

// CompactStats reports what an incremental compaction did. Pauses is
// the distribution queries care about: every entry is one interval the
// compaction held an index lock (read locks for the batch copies, the
// write lock for the final swap), which is exactly how long a
// concurrent query could have been stalled. Writers wait for the whole
// compaction instead (Elapsed).
type CompactStats struct {
	// Live is the number of paths in the compacted index.
	Live int `json:"live"`
	// Copied is the number of paths the batch steps copied.
	Copied int `json:"copied"`
	// Batches is the number of bounded copy steps.
	Batches int `json:"batches"`
	// Pauses are the individual lock-hold durations; MaxPause is their
	// maximum (the worst single stall the compaction induced).
	Pauses   []time.Duration `json:"-"`
	MaxPause time.Duration   `json:"max_pause_ns"`
	// Elapsed is the whole compaction's wall-clock time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

func (cs *CompactStats) pause(d time.Duration) {
	cs.Pauses = append(cs.Pauses, d)
	if d > cs.MaxPause {
		cs.MaxPause = d
	}
}

// CompactIncremental rewrites the index files keeping only live paths,
// reclaiming the space held by tombstoned records. It holds the writer
// lock throughout, so inserts and checkpoints wait for it and nothing
// changes the paths it copies. The copy works in bounded steps under
// short read locks — batch live paths are materialised per step, the
// lock released between steps — so queries keep reading the
// pre-compaction state throughout. Only the final swap takes the write
// lock, which waits for every open View (a query's cluster phase) to
// end, so no query reads across it: the files are swapped (rename), and
// the epoch and the layout bump — invalidating every cache entry that
// names an old PathID. With a WAL the swap doubles as a checkpoint: the
// new metadata carries the applied watermark and the log is discarded.
//
// batch ≤ 0 selects DefaultCompactBatch. On a failure
// before the final swap starts closing the old file handles, the
// original files remain intact and the index is untouched. A failure
// during the swap itself (closing the old pool or pages file, either
// rename, or the reopen) is recovered by rolling the swap forward:
// the new files are complete and synced before teardown begins, so
// the renames are finished, the new files reopened and adopted, and
// the index stays usable — the error is still returned. Only if that
// recovery reopen also fails is the index left closed, and the error
// says so explicitly.
func (ix *Index) CompactIncremental(ctx context.Context, batch int) (cs CompactStats, err error) {
	start := time.Now()
	if batch <= 0 {
		batch = DefaultCompactBatch
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	// Only writers change the index, so under the writer lock its path
	// count holds still.
	n := len(ix.rids)

	tmpBase := ix.base + ".compact"
	file, err := storage.CreatePageFile(pagesPath(tmpBase))
	if err != nil {
		return cs, err
	}
	next := &Index{
		base:    tmpBase,
		file:    file,
		pool:    storage.NewBufferPool(wrapPageIO(file, ix.wrapIO), 0),
		sinks:   textindex.New(ix.thes),
		labels:  textindex.New(ix.thes),
		sources: make(map[uint32][]PathID),
		pathCfg: ix.pathCfg,
		dict:    NewDictionary(),
	}
	next.store = storage.NewRecordStore(next.pool)
	fail := func(err error) (CompactStats, error) {
		file.Close()
		os.Remove(pagesPath(tmpBase))
		os.Remove(metaPath(tmpBase))
		os.Remove(metaPath(tmpBase) + ".tmp")
		return cs, err
	}

	// The copy: each step reads up to `batch` live paths in one batched
	// read under a read lock, then appends them to the new files with no
	// index lock held.
	var live []PathID
	for lo := 0; lo < n; lo += batch {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		var ps []paths.Path
		held := time.Now()
		err := ix.View(func(r Reader) (err error) {
			live = r.liveIn(live[:0], lo, min(lo+batch, n))
			ps, _, _, err = r.ReadPathsBatched(ctx, live)
			return err
		})
		cs.pause(time.Since(held))
		cs.Batches++
		if err != nil {
			return fail(fmt.Errorf("index: compact: %w", err))
		}
		for i, p := range ps {
			if err := next.addPath(p); err != nil {
				return fail(fmt.Errorf("index: compact: rewrite path %d: %w", live[i], err))
			}
		}
		cs.Copied += len(live)
	}

	// The swap, under the write lock: persist the new files and adopt
	// them.
	held := time.Now()
	ix.mu.Lock()
	defer func() {
		ix.mu.Unlock()
		cs.pause(time.Since(held))
		cs.Elapsed = time.Since(start)
	}()
	next.graph = ix.graph
	next.stats = ix.stats
	next.stats.Paths = next.livePathsLocked()
	next.stats.HE = next.stats.Triples + next.stats.Paths
	// The new metadata must carry the WAL linkage and watermark, so a
	// crash right after the swap recovers against the compacted files.
	next.walDir = ix.walDir
	next.applied = ix.applied
	if err := next.pool.Flush(); err != nil {
		return fail(err)
	}
	if err := next.writeMeta(); err != nil {
		return fail(err)
	}
	if err := file.Close(); err != nil {
		return fail(err)
	}

	// Past this point the old handles are being torn down, so fail's
	// delete-the-temporaries cleanup is no longer enough. adopt swaps
	// the reopened state in field by field: ix.mu is held and must not
	// be overwritten, and the WAL handle and watermark survive the
	// swap. The epoch and layout bumps ride along — compaction
	// renumbers PathIDs, so any cache entry naming one is garbage now
	// (and when a failure reopens the ORIGINAL files the bumps are merely
	// redundant).
	adopt := func(re *Index) {
		ix.file = re.file
		ix.pool = re.pool
		ix.store = re.store
		ix.rids = re.rids
		ix.lens = re.lens
		ix.sigs = re.sigs
		ix.sinks = re.sinks
		ix.labels = re.labels
		ix.sources = re.sources
		ix.deleted = re.deleted
		ix.tombs = re.tombs
		ix.dict = re.dict
		ix.graph = re.graph
		ix.stats = re.stats
		ix.stats.DiskBytes = ix.diskBytes()
		ix.epoch++
		ix.layout++
	}
	// closeFail keeps the stays-usable contract on post-close failures
	// by rolling the swap FORWARD, not back: the new files were fully
	// written and synced before teardown began, so completing the
	// renames preserves everything — including inserts since the last
	// checkpoint, which the original files' meta may predate. Only if
	// the roll-forward rename fails too does recoverCompactSwap fall back
	// to the originals.
	closeFail := func(cause error) (CompactStats, error) {
		os.Rename(pagesPath(tmpBase), pagesPath(ix.base))
		recoverCompactSwap(ix.base)
		re, rerr := openIndex(ix.base, Options{Paths: ix.pathCfg, Thesaurus: ix.thes, WrapIO: ix.wrapIO}, false)
		if rerr != nil {
			return cs, fmt.Errorf("%w (reopening the index files failed too: %v; the index is closed)", cause, rerr)
		}
		adopt(re)
		if ix.wal != nil && re.applied < ix.applied {
			// The roll-forward fell back to the originals and their meta
			// predates records the in-memory state had applied. Those
			// records are still in the WAL — the checkpoint that would
			// reclaim them never ran — so replay them, as Open would.
			if _, err := ix.replayLocked(re.applied + 1); err != nil {
				ix.pool.Close()
				ix.file.Close()
				return cs, fmt.Errorf("%w (replaying the log onto the original files failed too: %v; the index is closed)", cause, err)
			}
		}
		return cs, cause
	}
	if err := ix.pool.Close(); err != nil {
		ix.file.Close()
		return closeFail(fmt.Errorf("index: compact: close old pool: %w", err))
	}
	if err := ix.file.Close(); err != nil {
		return closeFail(fmt.Errorf("index: compact: close old pages: %w", err))
	}
	// The pages rename is the swap's commit point: recoverCompactSwap
	// finishes the meta rename if a crash lands between the two.
	if err := os.Rename(pagesPath(tmpBase), pagesPath(ix.base)); err != nil {
		return closeFail(fmt.Errorf("index: compact: swap pages: %w", err))
	}
	if err := os.Rename(metaPath(tmpBase), metaPath(ix.base)); err != nil {
		return closeFail(fmt.Errorf("index: compact: swap meta: %w", err))
	}
	if err := syncDirOf(metaPath(ix.base)); err != nil {
		return closeFail(fmt.Errorf("index: compact: sync dir: %w", err))
	}
	reopened, err := openIndex(ix.base, Options{Paths: ix.pathCfg, Thesaurus: ix.thes, WrapIO: ix.wrapIO}, false)
	if err != nil {
		return closeFail(fmt.Errorf("index: compact: reopen: %w", err))
	}
	adopt(reopened)
	cs.Live = ix.livePathsLocked()
	if ix.wal != nil {
		if err := ix.wal.Checkpoint(ix.applied); err != nil {
			return cs, fmt.Errorf("index: compact: wal checkpoint: %w", err)
		}
		ix.store.SealCurrentPage()
	}
	return cs, nil
}
