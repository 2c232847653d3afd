package index

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
)

// The crash matrix kills a WAL-enabled index at every stage of the
// write path — before the WAL append, mid-append (torn record), during
// the group-commit fsync, after the acknowledged insert, at both
// half-checkpoint states, and mid-compaction — and asserts the
// recovered index answers queries exactly as a consistent state would:
// the post-insert state wherever the insert was acknowledged, either
// consistent state where it was still in flight, and never anything
// torn. "Kills" are on-disk snapshots: everything visible at the kill
// instant is copied to a fresh directory and reopened there, exactly
// what a process killed at that instant would find on restart.
//
// The test batch brings a term the persisted dictionary has never seen,
// so wherever its records reached the page file ahead of the metadata
// they spell a dictionary ID the reopened dictionary does not hold.
// recoverClone therefore checks, at every kill point, that Open alone
// recovers: nothing live points at such a record, and the reopened
// index answers every lookup like a fresh build of its reopened graph.

// crashRig is one WAL-enabled index under crash testing plus the
// consistent states recovery is allowed to land in.
type crashRig struct {
	base, walDir string
	ix           *Index
	preKeys      []string // live paths before the test batch
	postKeys     []string // live paths after the test batch
}

// newCrashRig builds a figure-1 index with a WAL (manual checkpoints
// only, so the test controls exactly what is on disk) and records the
// pre-insert answer state. syncHook, when non-nil, interposes on every
// WAL commit fsync.
func newCrashRig(t *testing.T, syncHook func() error) *crashRig {
	t.Helper()
	dir := t.TempDir()
	r := &crashRig{
		base:   filepath.Join(dir, "ix"),
		walDir: filepath.Join(dir, "wal"),
	}
	ix, err := Build(r.base, figure1Graph(), Options{
		WALDir:          r.walDir,
		CheckpointBytes: -1,
		WALSyncHook:     syncHook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	r.ix = ix
	r.preKeys = livePathKeys(t, ix)
	return r
}

// insertBatch applies the matrix's test batch and records the
// post-insert answer state.
func (r *crashRig) insertBatch(t *testing.T) {
	t.Helper()
	terms := r.ix.dict.Len()
	if err := r.ix.InsertTriples(walTestTriples); err != nil {
		t.Fatal(err)
	}
	if r.ix.dict.Len() == terms {
		t.Fatal("the test batch interned no new term")
	}
	r.postKeys = livePathKeys(t, r.ix)
}

// recoverClone opens a crash snapshot, which recovers it, returning the
// recovered answer state.
func recoverClone(t *testing.T, base, walDir string) []string {
	t.Helper()
	re, err := Open(base, Options{WALDir: walDir, CheckpointBytes: -1})
	if err != nil {
		t.Fatalf("open crash snapshot: %v", err)
	}
	t.Cleanup(func() { re.Close() })
	readAllLive(t, re)

	fresh, err := Build(filepath.Join(t.TempDir(), "fresh"), re.Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	recovered := livePathKeys(t, re)
	if want := livePathKeys(t, fresh); !equalKeys(recovered, want) {
		t.Fatalf("recovered index holds %d live paths, a fresh build of its graph %d", len(recovered), len(want))
	}
	for _, term := range fresh.dict.terms {
		label := term.Label()
		if got, want := pathKeys(t, re, re.PathsBySink(label)), pathKeys(t, fresh, fresh.PathsBySink(label)); !equalKeys(got, want) {
			t.Errorf("PathsBySink(%q): recovered %v, fresh build %v", label, got, want)
		}
		if got, want := pathKeys(t, re, re.PathsByLabel(label)), pathKeys(t, fresh, fresh.PathsByLabel(label)); !equalKeys(got, want) {
			t.Errorf("PathsByLabel(%q): recovered %v, fresh build %v", label, got, want)
		}
	}
	return recovered
}

// readAllLive reads every live path in one batched read: each record
// must decode against the dictionary the index holds right now.
func readAllLive(t *testing.T, ix *Index) {
	t.Helper()
	var ids []PathID
	for id := 0; id < ix.NumPaths(); id++ {
		if ix.Live(PathID(id)) {
			ids = append(ids, PathID(id))
		}
	}
	pathKeys(t, ix, ids)
}

// pathKeys reads the given paths in one batched read and returns their
// canonical keys, sorted.
func pathKeys(t *testing.T, ix *Index, ids []PathID) []string {
	t.Helper()
	ps, err := ix.ReadPathsBatched(context.Background(), ids)
	if err != nil {
		t.Fatalf("batched read of %d live paths: %v", len(ids), err)
	}
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Key()
	}
	sort.Strings(keys)
	return keys
}

func TestCrashMatrixBeforeWALAppend(t *testing.T) {
	r := newCrashRig(t, nil)
	// Kill before the append: the batch left no trace anywhere.
	cb, cw := crashClone(t, r.base, r.walDir)
	r.insertBatch(t)
	if got := recoverClone(t, cb, cw); !equalKeys(got, r.preKeys) {
		t.Fatalf("recovered state is not the pre-insert state: %d vs %d paths", len(got), len(r.preKeys))
	}
}

func TestCrashMatrixDuringWALAppend(t *testing.T) {
	// Kill mid-append: snapshot while the record bytes are being
	// written (inside the commit, pre-fsync), then tear the tail of the
	// snapshot's newest segment — the on-disk picture of a crash that
	// caught the kernel mid-write. The unacknowledged batch must be
	// truncated away, never half-replayed.
	var snapBase, snapWAL string
	var armed atomic.Bool
	var r *crashRig
	hook := func() error {
		if armed.CompareAndSwap(true, false) {
			snapBase, snapWAL = crashClone(t, r.base, r.walDir)
		}
		return nil
	}
	r = newCrashRig(t, hook)
	armed.Store(true)
	r.insertBatch(t)
	if snapBase == "" {
		t.Fatal("sync hook never fired")
	}
	// Tear: chop a few bytes off the newest segment so the record's
	// frame is incomplete.
	segs, err := filepath.Glob(filepath.Join(snapWAL, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in snapshot: %v", err)
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	got := recoverClone(t, snapBase, snapWAL)
	if !equalKeys(got, r.preKeys) {
		t.Fatalf("torn append not rolled back: %d vs %d paths", len(got), len(r.preKeys))
	}
}

func TestCrashMatrixDuringGroupCommitFsync(t *testing.T) {
	// Kill during the fsync: the record bytes are fully written but not
	// yet acknowledged. Recovery may land on either side of the batch —
	// both are consistent — but never between.
	var snapBase, snapWAL string
	var armed atomic.Bool
	var r *crashRig
	hook := func() error {
		if armed.CompareAndSwap(true, false) {
			snapBase, snapWAL = crashClone(t, r.base, r.walDir)
		}
		return nil
	}
	r = newCrashRig(t, hook)
	armed.Store(true)
	r.insertBatch(t)
	if snapBase == "" {
		t.Fatal("sync hook never fired")
	}
	got := recoverClone(t, snapBase, snapWAL)
	if !equalKeys(got, r.preKeys) && !equalKeys(got, r.postKeys) {
		t.Fatalf("recovered state is neither pre (%d paths) nor post (%d): got %d",
			len(r.preKeys), len(r.postKeys), len(got))
	}
}

func TestCrashMatrixAfterAcknowledgedInsert(t *testing.T) {
	// Kill after InsertTriples returned: the batch was acknowledged, so
	// recovery MUST surface it — durability is the whole contract.
	r := newCrashRig(t, nil)
	r.insertBatch(t)
	cb, cw := crashClone(t, r.base, r.walDir)
	if got := recoverClone(t, cb, cw); !equalKeys(got, r.postKeys) {
		t.Fatalf("acknowledged insert lost: %d vs %d paths", len(got), len(r.postKeys))
	}
}

func TestCrashMatrixMidCheckpoint(t *testing.T) {
	// The checkpoint's on-disk protocol is: (1) flush pages, (2)
	// atomically replace the metadata, (3) truncate the WAL. A kill
	// between any two steps must recover to the post-insert state — the
	// batch was acknowledged long before. The two observable
	// intermediate states are reconstructed by mixing the files of a
	// pre-checkpoint and a post-checkpoint snapshot.
	r := newCrashRig(t, nil)
	r.insertBatch(t)
	preB, preW := crashClone(t, r.base, r.walDir) // checkpoint not started
	if err := r.ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	postB, _ := crashClone(t, r.base, r.walDir) // checkpoint complete

	t.Run("after-page-flush-before-meta", func(t *testing.T) {
		// Pages flushed, nothing else: the batch's records are in the
		// page file, no RID names them, and the old dictionary lacks
		// their new term. They stay orphans; the record replays.
		pre, err := os.ReadFile(pagesPath(preB))
		if err != nil {
			t.Fatal(err)
		}
		post, err := os.ReadFile(pagesPath(postB))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(pre, post) {
			t.Fatal("the checkpoint flushed no page: this is not the state it claims to be")
		}
		dir := t.TempDir()
		base, wal := filepath.Join(dir, "ix"), filepath.Join(dir, "wal")
		copyTree(t, pagesPath(postB), pagesPath(base))
		copyTree(t, metaPath(preB), metaPath(base))
		copyTree(t, preW, wal)
		if got := recoverClone(t, base, wal); !equalKeys(got, r.postKeys) {
			t.Fatalf("mid-checkpoint (pages flushed) lost the batch: %d vs %d paths", len(got), len(r.postKeys))
		}
	})
	t.Run("after-meta-before-truncate", func(t *testing.T) {
		// Metadata committed, WAL truncation lost: records at or below
		// the watermark are skipped on replay, not applied twice.
		dir := t.TempDir()
		base, wal := filepath.Join(dir, "ix"), filepath.Join(dir, "wal")
		copyTree(t, pagesPath(postB), pagesPath(base))
		copyTree(t, metaPath(postB), metaPath(base))
		copyTree(t, preW, wal) // the untruncated, pre-checkpoint log
		if got := recoverClone(t, base, wal); !equalKeys(got, r.postKeys) {
			t.Fatalf("mid-checkpoint (meta committed) diverged: %d vs %d paths", len(got), len(r.postKeys))
		}
	})
}

func TestCrashMatrixMidCompaction(t *testing.T) {
	// Kill during an incremental compaction, at both sides of the
	// swap's commit point. The WAL-specific states (pre-commit
	// temporaries discarded, post-commit meta rename completed) are
	// synthesised the same way TestCompactSwapCrashRecovery does for
	// the plain index, here with the log attached.
	r := newCrashRig(t, nil)
	r.insertBatch(t)
	if err := r.ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	t.Run("during-copy-phase", func(t *testing.T) {
		// Phase 1 writes only <base>.compact.pages; a kill there leaves
		// the original files authoritative and the temporary is garbage.
		cb, cw := crashClone(t, r.base, r.walDir)
		if err := os.WriteFile(pagesPath(cb+".compact"), []byte("partial compaction output"), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := recoverClone(t, cb, cw); !equalKeys(got, r.postKeys) {
			t.Fatalf("mid-copy crash diverged: %d vs %d paths", len(got), len(r.postKeys))
		}
		if _, err := os.Stat(pagesPath(cb + ".compact")); !os.IsNotExist(err) {
			t.Error("phase-1 temporary survived recovery")
		}
	})

	t.Run("between-swap-renames", func(t *testing.T) {
		// Compact for real, then reconstruct the kill between the pages
		// rename and the meta rename: new pages in place, old meta in
		// place, new meta still under the temporary name.
		oldMeta, err := os.ReadFile(metaPath(r.base))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ix.Compact(); err != nil {
			t.Fatal(err)
		}
		want := livePathKeys(t, r.ix)
		cb, cw := crashClone(t, r.base, r.walDir)
		if err := os.Rename(metaPath(cb), metaPath(cb+".compact")); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath(cb), oldMeta, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := recoverClone(t, cb, cw); !equalKeys(got, want) {
			t.Fatalf("post-commit compaction crash diverged: %d vs %d paths", len(got), len(want))
		}
	})
}

// TestCrashMatrixTornTailMetrics: what Open replayed reports the torn
// tail repair so operators can see silent data-loss-free repairs.
func TestCrashMatrixTornTailMetrics(t *testing.T) {
	r := newCrashRig(t, nil)
	r.insertBatch(t)
	cb, cw := crashClone(t, r.base, r.walDir)
	segs, _ := filepath.Glob(filepath.Join(cw, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	info, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[len(segs)-1], info.Size()-2); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cb, Options{WALDir: cw})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st, ok := re.WALStats()
	if !ok || !st.TornTailRepaired {
		t.Fatalf("torn tail repair not reported: ok=%v stats=%+v", ok, st)
	}
	if rs := re.Recovery(); !rs.TornTailRepaired || rs.Records != 0 {
		t.Errorf("Recovery() = %+v, want the torn tail repaired and nothing replayed", rs)
	}
	if got := livePathKeys(t, re); !equalKeys(got, r.preKeys) {
		t.Fatalf("torn batch half-applied: %d vs %d paths", len(got), len(r.preKeys))
	}
}
