package index

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sama/internal/rdf"
	"sama/internal/storage"
)

// livePathKeys collects the canonical keys of every live path.
func livePathKeys(t *testing.T, ix *Index) []string {
	t.Helper()
	var keys []string
	for id := 0; id < ix.NumPaths(); id++ {
		if !ix.Live(PathID(id)) {
			continue
		}
		p, err := pathByID(ix, PathID(id))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, p.Key())
	}
	sort.Strings(keys)
	return keys
}

func TestCompactPreservesLivePaths(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cmp")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// Create tombstones through a few updates: the second gives the sink
	// the first created an out-edge, which extends Carla's path to it.
	for _, tr := range []rdf.Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A8000")},
		{S: iri("A8000"), P: iri("aTo"), O: iri("B0532")},
		{S: iri("JeffRyser"), P: iri("sponsor"), O: iri("A8001")},
	} {
		if err := ix.InsertTriples([]rdf.Triple{tr}); err != nil {
			t.Fatal(err)
		}
	}
	if ix.LivePaths() == ix.NumPaths() {
		t.Fatal("updates created no tombstones; test needs them")
	}
	before := livePathKeys(t, ix)
	beforeSize := ix.Stats().DiskBytes
	total := ix.NumPaths()

	if _, err := ix.CompactIncremental(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	after := livePathKeys(t, ix)
	if len(before) != len(after) {
		t.Fatalf("live paths changed: %d → %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("path set changed at %d", i)
		}
	}
	if ix.NumPaths() >= total {
		t.Errorf("compaction kept dead slots: %d of %d", ix.NumPaths(), total)
	}
	if ix.NumPaths() != ix.LivePaths() {
		t.Error("compacted index still has tombstones")
	}
	_ = beforeSize // page granularity can hide small gains; key check is slot count
	// Lookups still work after the swap.
	if got := ix.PathsBySink("Health Care"); len(got) == 0 {
		t.Error("sink lookup broken after compaction")
	}
	// And further updates still work (graph survived the swap).
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("PostCompact"), P: iri("sponsor"), O: iri("B1432")},
	}); err != nil {
		t.Errorf("insert after compaction: %v", err)
	}
}

func TestCompactCompressedIndex(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cmpz")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A8000")},
	}); err != nil {
		t.Fatal(err)
	}
	before := livePathKeys(t, ix)
	if _, err := ix.CompactIncremental(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	after := livePathKeys(t, ix)
	if len(before) != len(after) {
		t.Fatalf("compaction lost paths: %d → %d", len(before), len(after))
	}
	// Persisted dictionary still decodes after reopen.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := livePathKeys(t, back); len(got) != len(after) {
		t.Errorf("reopened compacted index paths = %d, want %d", len(got), len(after))
	}
}

func TestCompactIncrementalStats(t *testing.T) {
	base := filepath.Join(t.TempDir(), "inc")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A8000")},
	}); err != nil {
		t.Fatal(err)
	}
	liveBefore := ix.LivePaths()
	cs, err := ix.CompactIncremental(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Batches < 2 {
		t.Errorf("batch=2 over %d paths ran %d batches, want several", liveBefore, cs.Batches)
	}
	if cs.Live != liveBefore {
		t.Errorf("Live = %d, want %d", cs.Live, liveBefore)
	}
	if cs.Copied != liveBefore {
		t.Errorf("Copied = %d, want the %d live paths", cs.Copied, liveBefore)
	}
	// One pause per batch plus the final write-locked swap.
	if len(cs.Pauses) != cs.Batches+1 {
		t.Errorf("pauses = %d, want batches+1 = %d", len(cs.Pauses), cs.Batches+1)
	}
	if cs.MaxPause <= 0 || cs.Elapsed < cs.MaxPause {
		t.Errorf("MaxPause %v / Elapsed %v inconsistent", cs.MaxPause, cs.Elapsed)
	}
}

func TestCompactIncrementalContextCancel(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cancel")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	want := livePathKeys(t, ix)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.CompactIncremental(ctx, 1); err == nil {
		t.Fatal("cancelled compaction reported success")
	}
	if got := livePathKeys(t, ix); !equalKeys(got, want) {
		t.Fatal("cancelled compaction changed the index")
	}
	// The failed pass released the writer lock and left the files
	// intact: a retry succeeds.
	if _, err := ix.CompactIncremental(context.Background(), 0); err != nil {
		t.Fatalf("compaction after cancelled pass: %v", err)
	}
}

// TestCompactIncrementalConcurrentInserts runs fine-grained
// compactions back to back beside a stream of inserts and checks the
// final live path set is exactly what the final graph enumerates. The
// writer lock serialises the two — an insert waits for a running
// compaction, which copies everything inserted before it — so every
// insert lands whole before a copy or after a swap, never lost or
// duplicated.
func TestCompactIncrementalConcurrentInserts(t *testing.T) {
	base := filepath.Join(t.TempDir(), "race")
	g := figure1Graph()
	ix, err := Build(base, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	done := make(chan struct{})
	var insertErr error
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			tr := rdf.Triple{
				S: iri(fmt.Sprintf("Racer%02d", i)),
				P: iri("sponsor"),
				O: iri("B1432"),
			}
			if err := ix.InsertTriples([]rdf.Triple{tr}); err != nil {
				insertErr = err
				return
			}
		}
	}()
	for {
		if _, err := ix.CompactIncremental(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			if insertErr != nil {
				t.Fatal(insertErr)
			}
			// One final pass over the quiesced index.
			if _, err := ix.CompactIncremental(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			got := livePathKeys(t, ix)
			refBase := filepath.Join(t.TempDir(), "ref")
			ref, err := Build(refBase, ix.Graph(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if want := livePathKeys(t, ref); !equalKeys(got, want) {
				t.Fatalf("after concurrent compact+insert: %d live paths, reference enumerates %d",
					len(got), len(want))
			}
			if ix.NumPaths() != ix.LivePaths() {
				t.Error("final compaction left tombstones")
			}
			return
		default:
		}
	}
}

// TestCompactSwapCrashRecovery drives Open through both halves of the
// swap's crash window: temporaries from before the commit point are
// discarded (the original index answers), a meta rename lost after the
// pages rename is completed (the compacted index answers).
func TestCompactSwapCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A8000")},
	}); err != nil {
		t.Fatal(err)
	}
	want := livePathKeys(t, ix)
	preSlots := ix.NumPaths()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// Pre-commit crash: both temporaries exist, originals untouched.
	copyTree(t, pagesPath(base), pagesPath(base+".compact"))
	copyTree(t, metaPath(base), metaPath(base+".compact"))
	re, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := livePathKeys(t, re); !equalKeys(got, want) {
		t.Fatal("pre-commit crash recovery changed the answers")
	}
	if re.NumPaths() != preSlots {
		t.Fatalf("pre-commit recovery slots = %d, want the uncompacted %d", re.NumPaths(), preSlots)
	}
	if _, err := os.Stat(pagesPath(base + ".compact")); !os.IsNotExist(err) {
		t.Error("pre-commit temporaries not discarded")
	}

	// Post-commit crash: compact fully, then reconstruct the state a
	// kill between the two renames leaves — new pages in place, OLD
	// meta in place, new meta still under the temporary name.
	oldMeta, err := os.ReadFile(metaPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.CompactIncremental(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	postSlots := re.NumPaths()
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(metaPath(base), metaPath(base+".compact")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath(base), oldMeta, 0o644); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := livePathKeys(t, re2); !equalKeys(got, want) {
		t.Fatal("post-commit crash recovery changed the answers")
	}
	if re2.NumPaths() != postSlots {
		t.Fatalf("post-commit recovery slots = %d, want the compacted %d", re2.NumPaths(), postSlots)
	}
}

// TestCompactIncrementalWithWAL: compaction on a WAL-enabled index
// keeps the log linkage — the swap checkpoints, and a crash after it
// recovers against the compacted files with the same answers.
func TestCompactIncrementalWithWAL(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	walDir := filepath.Join(dir, "wal")
	ix, err := Build(base, figure1Graph(), Options{WALDir: walDir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertTriples(walTestTriples); err != nil {
		t.Fatal(err)
	}
	cs, err := ix.CompactIncremental(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Live != ix.LivePaths() {
		t.Errorf("Live = %d, want %d", cs.Live, ix.LivePaths())
	}
	st, ok := ix.WALStats()
	if !ok {
		t.Fatal("WAL detached by compaction")
	}
	if st.Checkpoints == 0 {
		t.Error("compaction swap did not checkpoint the WAL")
	}
	// Insert after the swap, then crash: the record must replay against
	// the compacted files.
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("PostSwap"), P: iri("sponsor"), O: iri("A0056")},
	}); err != nil {
		t.Fatal(err)
	}
	want := livePathKeys(t, ix)
	wantGraph := graphOrder(ix.Graph())
	cb, cw := crashClone(t, base, walDir)
	ix.Close()

	re, err := Open(cb, Options{WALDir: cw})
	if err != nil {
		t.Fatalf("Open after compact+crash: %v", err)
	}
	defer re.Close()
	if got := livePathKeys(t, re); !equalKeys(got, want) {
		t.Fatalf("answers diverge after compact+crash+recover: %d vs %d paths", len(got), len(want))
	}
	if got := graphOrder(re.Graph()); got != wantGraph {
		t.Fatalf("graph after compact+crash+recover:\n%s\nwant\n%s", got, wantGraph)
	}
}

// TestCompactIncrementalPostCloseFailureReopens: a failure after the
// swap has started closing the old handles (here: the old pool's final
// sync) must not strand the index on dead handles. The recovery path
// reopens the authoritative files and adopts them, so the index keeps
// answering — and a retry of the compaction succeeds.
func TestCompactIncrementalPostCloseFailureReopens(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cfail")
	// Wrap only the FIRST page file (the original index). The
	// compaction's temp file and any recovery reopen pass through, so
	// the injected sync fault fires exactly once: at the old pool's
	// Close during the swap — after the temp files are fully written,
	// before any rename.
	var fi *storage.FaultInjector
	wrapped := false
	ix, err := Build(base, figure1Graph(), Options{
		WrapIO: func(io storage.PageIO) storage.PageIO {
			if wrapped {
				return io
			}
			wrapped = true
			fi = storage.NewFaultInjector(io)
			return fi
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A8000")},
	}); err != nil {
		t.Fatal(err)
	}
	want := livePathKeys(t, ix)
	epoch := ix.Epoch()

	fi.Inject(storage.Fault{Op: storage.OpSync, Kind: storage.Transient, Times: 1})
	_, err = ix.CompactIncremental(context.Background(), 0)
	if err == nil {
		t.Fatal("compaction with a failing old-pool sync succeeded")
	}
	if !strings.Contains(err.Error(), "close old pool") {
		t.Fatalf("fault fired in the wrong place: %v", err)
	}
	if strings.Contains(err.Error(), "the index is closed") {
		t.Fatalf("recovery reopen failed: %v", err)
	}
	// The stays-usable contract: same answers from the reopened files.
	if got := livePathKeys(t, ix); !equalKeys(got, want) {
		t.Fatalf("answers diverge after recovered swap failure: %d vs %d paths", len(got), len(want))
	}
	if ix.Epoch() == epoch {
		t.Error("adopting reopened files must bump the epoch")
	}
	// And the failure was transient from the caller's view: retry works.
	if _, err := ix.CompactIncremental(context.Background(), 0); err != nil {
		t.Fatalf("retry after recovered failure: %v", err)
	}
	if got := livePathKeys(t, ix); !equalKeys(got, want) {
		t.Fatal("retried compaction changed the answer surface")
	}
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("PostFail"), P: iri("sponsor"), O: iri("B1432")},
	}); err != nil {
		t.Fatalf("insert after recovered failure: %v", err)
	}
}

// TestCompactIncrementalReadFaultKeepsOriginal: a permanent read fault
// on a page holding a record the copy phase reads fails the compaction
// before the swap, with the original files byte for byte as they were,
// no temporaries left behind, and the index still answering; once the
// fault clears, a retry compacts.
func TestCompactIncrementalReadFaultKeepsOriginal(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rfault")
	// Only the original page file is wrapped: the compaction's own file
	// reuses its page IDs.
	var fi *storage.FaultInjector
	ix, err := Build(base, figure1Graph(), Options{
		WrapIO: func(io storage.PageIO) storage.PageIO {
			if fi != nil {
				return io
			}
			fi = storage.NewFaultInjector(io)
			return fi
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertTriples([]rdf.Triple{{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A8000")}}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	files := func() string {
		t.Helper()
		pages, err := os.ReadFile(pagesPath(base))
		if err != nil {
			t.Fatal(err)
		}
		meta, err := os.ReadFile(metaPath(base))
		if err != nil {
			t.Fatal(err)
		}
		return string(pages) + string(meta)
	}
	want, keys := files(), livePathKeys(t, ix)
	var page storage.PageID
	for id := range ix.rids {
		if ix.Live(PathID(id)) {
			page = ix.rids[id].Page
			break
		}
	}
	if err := ix.DropCache(); err != nil {
		t.Fatal(err)
	}

	fi.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.Permanent, Page: page})
	_, err = ix.CompactIncremental(context.Background(), 2)
	fi.Clear()
	if err == nil || !strings.Contains(err.Error(), "index: compact") {
		t.Fatalf("compaction with an unreadable record page: err = %v, want a failed copy", err)
	}
	if files() != want {
		t.Fatal("failed compaction changed the original files")
	}
	for _, tmp := range []string{pagesPath(base + ".compact"), metaPath(base + ".compact")} {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("failed compaction left %s behind (%v)", tmp, err)
		}
	}
	if got := livePathKeys(t, ix); !equalKeys(got, keys) {
		t.Fatal("index answers differently after the failed compaction")
	}
	if _, err := ix.CompactIncremental(context.Background(), 2); err != nil {
		t.Fatalf("compaction after the fault cleared: %v", err)
	}
	if got := livePathKeys(t, ix); !equalKeys(got, keys) {
		t.Fatal("retried compaction changed the answer surface")
	}
}
