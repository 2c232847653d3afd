package index

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"sama/internal/rdf"
)

// The crash matrix kills an index at every stage of the
// write path — before the WAL append, mid-append (torn record), during
// the commit fsync, after the acknowledged insert, at both
// half-checkpoint states, inside the checkpoint's log rewrite, and
// mid-compaction — and asserts the recovered index answers queries
// exactly as a consistent state would: the post-insert state wherever
// the insert was acknowledged, either consistent state where it was
// still in flight, and never anything torn. "Kills" are on-disk snapshots: everything visible at the kill
// instant is copied to a fresh directory and reopened there, exactly
// what a process killed at that instant would find on restart.
//
// The test batch brings a term the persisted dictionary has never seen,
// so wherever its records reached the page file ahead of the metadata
// they spell a dictionary ID the reopened dictionary does not hold.
// recoverClone therefore checks, at every kill point, that Open alone
// recovers: nothing live points at such a record, and the reopened
// index answers every lookup like a fresh build of its reopened graph.

// crashRig is one index under crash testing plus the
// consistent states recovery is allowed to land in.
type crashRig struct {
	base     string
	ix       *Index
	preKeys  []string // live paths before the test batch
	postKeys []string // live paths after the test batch
}

// newCrashRig builds a figure-1 index (manual checkpoints only, so the test controls exactly what is on disk) and records the
// pre-insert answer state. syncHook, when non-nil, interposes on every
// WAL fsync.
func newCrashRig(t *testing.T, syncHook func() error) *crashRig {
	t.Helper()
	dir := t.TempDir()
	r := &crashRig{base: filepath.Join(dir, "ix")}
	ix, err := Build(r.base, figure1Graph(), Options{
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

// walFile is the log's name in its directory.
const walFile = "wal.log"

// recoverClone opens a crash snapshot, which recovers it, returning the
// recovered answer state.
func recoverClone(t *testing.T, base string) []string {
	t.Helper()
	return livePathKeys(t, recoverCloneIndex(t, base))
}

// recoverCloneIndex is recoverClone returning the recovered index,
// which stays open until the test ends.
func recoverCloneIndex(t *testing.T, base string) *Index {
	t.Helper()
	re, err := Open(base, Options{CheckpointBytes: -1})
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
	if recovered, want := livePathKeys(t, re), livePathKeys(t, fresh); !slices.Equal(recovered, want) {
		t.Fatalf("recovered index holds %d live paths, a fresh build of its graph %d", len(recovered), len(want))
	}
	for _, term := range fresh.dict.terms {
		label := term.Label()
		if got, want := pathKeys(t, re, re.PathsBySink(label)), pathKeys(t, fresh, fresh.PathsBySink(label)); !slices.Equal(got, want) {
			t.Errorf("PathsBySink(%q): recovered %v, fresh build %v", label, got, want)
		}
		if got, want := pathKeys(t, re, re.PathsByLabel(label)), pathKeys(t, fresh, fresh.PathsByLabel(label)); !slices.Equal(got, want) {
			t.Errorf("PathsByLabel(%q): recovered %v, fresh build %v", label, got, want)
		}
	}
	return re
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
	cb := crashClone(t, r.base)
	r.insertBatch(t)
	if got := recoverClone(t, cb); !slices.Equal(got, r.preKeys) {
		t.Fatalf("recovered state is not the pre-insert state: %d vs %d paths", len(got), len(r.preKeys))
	}
}

func TestCrashMatrixDuringWALAppend(t *testing.T) {
	// Kill mid-append: snapshot while the record bytes are being
	// written (inside the commit, pre-fsync), then tear the tail of the
	// snapshot's log — the on-disk picture of a crash that
	// caught the kernel mid-write. The unacknowledged batch must be
	// truncated away, never half-replayed.
	var snapBase string
	var armed atomic.Bool
	var r *crashRig
	hook := func() error {
		if armed.CompareAndSwap(true, false) {
			snapBase = crashClone(t, r.base)
		}
		return nil
	}
	r = newCrashRig(t, hook)
	armed.Store(true)
	r.insertBatch(t)
	if snapBase == "" {
		t.Fatal("sync hook never fired")
	}
	// Tear: chop a few bytes off the log so the record's frame is
	// incomplete.
	log := filepath.Join(walPath(snapBase), walFile)
	info, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(log, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	got := recoverClone(t, snapBase)
	if !slices.Equal(got, r.preKeys) {
		t.Fatalf("torn append not rolled back: %d vs %d paths", len(got), len(r.preKeys))
	}
}

func TestCrashMatrixDuringCommitFsync(t *testing.T) {
	// Kill during the fsync: the record bytes are fully written but not
	// yet acknowledged. Recovery may land on either side of the batch —
	// both are consistent — but never between.
	var snapBase string
	var armed atomic.Bool
	var r *crashRig
	hook := func() error {
		if armed.CompareAndSwap(true, false) {
			snapBase = crashClone(t, r.base)
		}
		return nil
	}
	r = newCrashRig(t, hook)
	armed.Store(true)
	r.insertBatch(t)
	if snapBase == "" {
		t.Fatal("sync hook never fired")
	}
	got := recoverClone(t, snapBase)
	if !slices.Equal(got, r.preKeys) && !slices.Equal(got, r.postKeys) {
		t.Fatalf("recovered state is neither pre (%d paths) nor post (%d): got %d",
			len(r.preKeys), len(r.postKeys), len(got))
	}
}

func TestCrashMatrixAfterAcknowledgedInsert(t *testing.T) {
	// Kill after InsertTriples returned: the batch was acknowledged, so
	// recovery MUST surface it — durability is the whole contract.
	r := newCrashRig(t, nil)
	r.insertBatch(t)
	cb := crashClone(t, r.base)
	if got := recoverClone(t, cb); !slices.Equal(got, r.postKeys) {
		t.Fatalf("acknowledged insert lost: %d vs %d paths", len(got), len(r.postKeys))
	}
}

func TestCrashMatrixMidCheckpoint(t *testing.T) {
	// The checkpoint's on-disk protocol is: (1) flush pages, (2)
	// atomically replace the metadata, (3) replace the WAL with a fresh
	// header. A kill between any two steps must recover to the
	// post-insert state — the batch was acknowledged long before. The
	// two observable intermediate states are reconstructed by mixing the
	// files of a pre-checkpoint and a post-checkpoint snapshot.
	r := newCrashRig(t, nil)
	r.insertBatch(t)
	preB := crashClone(t, r.base) // checkpoint not started
	if err := r.ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	postB := crashClone(t, r.base) // checkpoint complete

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
		base := filepath.Join(t.TempDir(), "ix")
		copyTree(t, pagesPath(postB), pagesPath(base))
		copyTree(t, metaPath(preB), metaPath(base))
		copyTree(t, walPath(preB), walPath(base))
		if got := recoverClone(t, base); !slices.Equal(got, r.postKeys) {
			t.Fatalf("mid-checkpoint (pages flushed) lost the batch: %d vs %d paths", len(got), len(r.postKeys))
		}
	})
	t.Run("after-meta-before-truncate", func(t *testing.T) {
		// Metadata committed, the log's rewrite lost: records at or
		// below the watermark are skipped on replay, not applied twice.
		base := filepath.Join(t.TempDir(), "ix")
		copyTree(t, pagesPath(postB), pagesPath(base))
		copyTree(t, metaPath(postB), metaPath(base))
		copyTree(t, walPath(preB), walPath(base)) // the untruncated, pre-checkpoint log
		if got := recoverClone(t, base); !slices.Equal(got, r.postKeys) {
			t.Fatalf("mid-checkpoint (meta committed) diverged: %d vs %d paths", len(got), len(r.postKeys))
		}
	})
}

func TestCrashMatrixDuringLogRewrite(t *testing.T) {
	// Kill inside the checkpoint's last step, after the metadata commit:
	// the fresh header is written to a temporary and fsynced, then
	// renamed over the log. The kill leaves the old log beside a
	// temporary in any state of being written, or the new log. Each
	// must recover the post-insert state, and the next insert must get
	// the LSN after the applied one.
	var snapBase string
	var armed atomic.Bool
	var r *crashRig
	hook := func() error {
		if armed.CompareAndSwap(true, false) {
			snapBase = crashClone(t, r.base)
		}
		return nil
	}
	r = newCrashRig(t, hook)
	r.insertBatch(t)
	applied := r.ix.applied
	armed.Store(true)
	if err := r.ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if snapBase == "" {
		t.Fatal("the checkpoint's log rewrite never synced")
	}
	postB := crashClone(t, r.base)
	tmp, err := os.ReadFile(filepath.Join(walPath(snapBase), walFile+".tmp"))
	if err != nil || len(tmp) == 0 {
		t.Fatalf("no fresh header in the temporary at the kill point (err=%v)", err)
	}
	for _, c := range []struct {
		name string
		base string
		tmp  []byte // the temporary's contents; nil = none
	}{
		{"old-log", snapBase, nil},
		{"old-log-empty-temporary", snapBase, []byte{}},
		{"old-log-short-temporary", snapBase, tmp[:len(tmp)/2]},
		{"old-log-whole-temporary", snapBase, tmp},
		{"new-log", postB, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "ix")
			wal := walPath(base)
			copyTree(t, pagesPath(c.base), pagesPath(base))
			copyTree(t, metaPath(c.base), metaPath(base))
			if err := os.Mkdir(wal, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, filepath.Join(walPath(c.base), walFile), filepath.Join(wal, walFile))
			if c.tmp != nil {
				if err := os.WriteFile(filepath.Join(wal, walFile+".tmp"), c.tmp, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			re := recoverCloneIndex(t, base)
			if got := livePathKeys(t, re); !slices.Equal(got, r.postKeys) {
				t.Fatalf("recovered %d paths, want the post-insert %d", len(got), len(r.postKeys))
			}
			if rs := re.Recovery(); rs.Records != 0 {
				t.Errorf("replayed %d records the metadata had applied", rs.Records)
			}
			if err := re.InsertTriples([]rdf.Triple{{S: iri("AfterRewrite"), P: iri("sponsor"), O: iri("A0056")}}); err != nil {
				t.Fatal(err)
			}
			if st := re.WALStats(); st.LastLSN != applied+1 {
				t.Fatalf("the next insert got LSN %d, want %d", st.LastLSN, applied+1)
			}
			if names, _ := filepath.Glob(filepath.Join(wal, "*")); len(names) != 1 {
				t.Errorf("WAL directory holds %v after recovery, want only the log", names)
			}
		})
	}
}

func TestCrashMatrixMidCompaction(t *testing.T) {
	// Kill during a compaction, at both sides of the
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
		// The rebuild writes the copy to <base>.compact.pages first; a
		// kill there leaves the original files authoritative and the
		// temporary is garbage.
		cb := crashClone(t, r.base)
		if err := os.WriteFile(pagesPath(cb+".compact"), []byte("partial compaction output"), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := recoverClone(t, cb); !slices.Equal(got, r.postKeys) {
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
		if _, err := r.ix.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
		want := livePathKeys(t, r.ix)
		cb := crashClone(t, r.base)
		if err := os.Rename(metaPath(cb), metaPath(cb+".compact")); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath(cb), oldMeta, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := recoverClone(t, cb); !slices.Equal(got, want) {
			t.Fatalf("post-commit compaction crash diverged: %d vs %d paths", len(got), len(want))
		}
	})
}

// TestCrashMatrixTornTailMetrics: what Open replayed reports the torn
// tail repair so operators can see silent data-loss-free repairs.
func TestCrashMatrixTornTailMetrics(t *testing.T) {
	r := newCrashRig(t, nil)
	r.insertBatch(t)
	cb := crashClone(t, r.base)
	log := filepath.Join(walPath(cb), walFile)
	info, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(log, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	re, err := Open(cb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.WALStats(); !st.TornTailRepaired {
		t.Fatalf("torn tail repair not reported: stats=%+v", st)
	}
	if rs := re.Recovery(); !rs.TornTailRepaired || rs.Records != 0 {
		t.Errorf("Recovery() = %+v, want the torn tail repaired and nothing replayed", rs)
	}
	if got := livePathKeys(t, re); !slices.Equal(got, r.preKeys) {
		t.Fatalf("torn batch half-applied: %d vs %d paths", len(got), len(r.preKeys))
	}
}
