package index

import (
	"context"
	"fmt"
	"os"
	"time"
)

// CompactStats reports what a compaction did. Pause is what queries see
// of it: the one interval it holds the index's write lock, the swap,
// which is how long a concurrent query could have been stalled. Writers
// wait for the whole compaction instead (Elapsed).
type CompactStats struct {
	// Live is the number of paths in the compacted index.
	Live int `json:"live"`
	// Pause is the swap's write-lock hold.
	Pause time.Duration `json:"pause_ns"`
	// Elapsed is the whole compaction's wall-clock time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Compact rewrites the index files as Build writes them for the index's
// graph and path budget, reclaiming the space held by tombstoned
// records: the compacted files are those a fresh build of the graph
// writes, every path renumbered in the build's order, with the original
// build time and the applied watermark. It holds the writer lock
// throughout, so inserts and checkpoints wait for it and the graph holds
// still; the rebuild reads the graph, no page of the old index, and
// takes no index lock, so queries keep reading the pre-compaction state
// throughout. Only the swap takes the write lock, which waits for every
// open View (a query's cluster phase) to end, so no query reads across
// it: the old handles are closed, the rebuilt files renamed into place
// and the rebuilt index adopted as it is — its pages handle survives the
// rename, and its tables are the ones the new metadata holds, so nothing
// is read back — and the epoch and the layout bump, invalidating every
// cache entry that names an old PathID. The swap doubles as a
// checkpoint: the new metadata carries the applied watermark and the
// log is discarded.
//
// On a failure before the swap starts closing the old file handles — a
// cancelled ctx included — the original files remain intact and the
// index is untouched. A failure during the swap itself (closing the old
// pool or pages file, either rename, or the directory sync) is recovered by
// rolling the swap forward: the new files are complete and synced
// before teardown begins, so the renames are finished, the new files
// reopened and adopted, and the index stays usable — the error is still
// returned. Only if that recovery reopen also fails is the index left
// closed, and the error says so explicitly.
func (ix *Index) Compact(ctx context.Context) (cs CompactStats, err error) {
	start := time.Now()
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	defer func() { cs.Elapsed = time.Since(start) }()

	// The rebuild: only writers change the graph, its dictionary, the
	// stats and the watermark, so under the writer lock they hold still.
	tmpBase := ix.base + ".compact"
	next, err := writeIndex(tmpBase, ix.graph.materialise(ix.dict), ix.opts,
		func(nx *Index) (int, error) { return nx.streamPaths(ctx) },
		func(nx *Index) {
			// The watermark makes a crash right after the swap recover
			// against the compacted files.
			nx.stats.BuildTime, nx.applied = ix.stats.BuildTime, ix.applied
		})
	if err != nil {
		os.Remove(pagesPath(tmpBase))
		os.Remove(metaPath(tmpBase))
		os.Remove(metaPath(tmpBase) + ".tmp")
		return cs, fmt.Errorf("index: compact: %w", err)
	}

	// The swap, under the write lock: adopt the new files.
	held := time.Now()
	ix.mu.Lock()
	defer func() {
		ix.mu.Unlock()
		cs.Pause = time.Since(held)
	}()
	// Past this point the old handles are being torn down. adopt swaps
	// the rebuilt (or, on a failure, reopened) state in field by field:
	// ix.mu is held and must not be overwritten, and the WAL handle and
	// watermark survive the swap. The epoch and layout bumps ride along — compaction
	// renumbers PathIDs, so any cache entry naming one is garbage now
	// (and when a failure reopens the ORIGINAL files the bumps are merely
	// redundant).
	adopt := func(re *Index) {
		ix.file = re.file
		ix.pool = re.pool
		ix.store = re.store
		ix.lens = re.lens
		ix.sigs = re.sigs
		ix.sinks = re.sinks
		ix.labels = re.labels
		ix.labelLists = re.labelLists
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
		next.file.Close()
		os.Rename(pagesPath(tmpBase), pagesPath(ix.base))
		recoverCompactSwap(ix.base)
		re, rerr := openIndex(ix.base, ix.opts)
		if rerr != nil {
			return cs, fmt.Errorf("%w (reopening the index files failed too: %v; the index is closed)", cause, rerr)
		}
		adopt(re)
		if re.applied < ix.applied {
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
	if err := next.file.Rename(pagesPath(ix.base)); err != nil {
		return closeFail(fmt.Errorf("index: compact: swap pages: %w", err))
	}
	if err := os.Rename(metaPath(tmpBase), metaPath(ix.base)); err != nil {
		return closeFail(fmt.Errorf("index: compact: swap meta: %w", err))
	}
	if err := syncDirOf(metaPath(ix.base)); err != nil {
		return closeFail(fmt.Errorf("index: compact: sync dir: %w", err))
	}
	adopt(next)
	cs.Live = ix.livePathsLocked()
	if err := ix.wal.Checkpoint(ix.applied); err != nil {
		return cs, fmt.Errorf("index: compact: wal checkpoint: %w", err)
	}
	ix.store.Seal(len(ix.lens))
	return cs, nil
}
