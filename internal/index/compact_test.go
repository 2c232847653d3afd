package index

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"sama/internal/datasets"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
	"sama/internal/textindex"
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

	if _, err := ix.Compact(context.Background()); err != nil {
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
	if _, err := ix.Compact(context.Background()); err != nil {
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
	cs, err := ix.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Live != liveBefore {
		t.Errorf("Live = %d, want %d", cs.Live, liveBefore)
	}
	// The swap is one interval of the whole compaction.
	if cs.Pause <= 0 || cs.Elapsed < cs.Pause {
		t.Errorf("Pause %v / Elapsed %v inconsistent", cs.Pause, cs.Elapsed)
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
	if _, err := ix.Compact(ctx); err == nil {
		t.Fatal("cancelled compaction reported success")
	}
	if got := livePathKeys(t, ix); !slices.Equal(got, want) {
		t.Fatal("cancelled compaction changed the index")
	}
	// The failed pass released the writer lock and left the files
	// intact: a retry succeeds.
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatalf("compaction after cancelled pass: %v", err)
	}
}

// TestCompactIncrementalConcurrentInserts runs compactions back to back
// beside a stream of inserts and checks the final live path set is
// exactly what the final graph enumerates. The writer lock serialises
// the two — an insert waits for a running compaction, which rebuilds
// from a graph holding everything inserted before it — so every insert
// lands whole before a rebuild or after a swap, never lost or
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
		if _, err := ix.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			if insertErr != nil {
				t.Fatal(insertErr)
			}
			// One final pass over the quiesced index.
			if _, err := ix.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
			got := livePathKeys(t, ix)
			refBase := filepath.Join(t.TempDir(), "ref")
			ref, err := Build(refBase, ix.Graph(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if want := livePathKeys(t, ref); !slices.Equal(got, want) {
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
	if got := livePathKeys(t, re); !slices.Equal(got, want) {
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
	if _, err := re.Compact(context.Background()); err != nil {
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
	if got := livePathKeys(t, re2); !slices.Equal(got, want) {
		t.Fatal("post-commit crash recovery changed the answers")
	}
	if re2.NumPaths() != postSlots {
		t.Fatalf("post-commit recovery slots = %d, want the compacted %d", re2.NumPaths(), postSlots)
	}
}

// TestCompactIncrementalWithWAL: compaction keeps the log linkage —
// the swap checkpoints the log, and a crash after it
// recovers against the compacted files with the same answers.
func TestCompactIncrementalWithWAL(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	ix, err := Build(base, figure1Graph(), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertTriples(walTestTriples); err != nil {
		t.Fatal(err)
	}
	cs, err := ix.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Live != ix.LivePaths() {
		t.Errorf("Live = %d, want %d", cs.Live, ix.LivePaths())
	}
	if st := ix.WALStats(); st.Checkpoints == 0 {
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
	cb := crashClone(t, base)
	ix.Close()

	re, err := Open(cb, Options{})
	if err != nil {
		t.Fatalf("Open after compact+crash: %v", err)
	}
	defer re.Close()
	if got := livePathKeys(t, re); !slices.Equal(got, want) {
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
	_, err = ix.Compact(context.Background())
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
	if got := livePathKeys(t, ix); !slices.Equal(got, want) {
		t.Fatalf("answers diverge after recovered swap failure: %d vs %d paths", len(got), len(want))
	}
	if ix.Epoch() == epoch {
		t.Error("adopting reopened files must bump the epoch")
	}
	// And the failure was transient from the caller's view: retry works.
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatalf("retry after recovered failure: %v", err)
	}
	if got := livePathKeys(t, ix); !slices.Equal(got, want) {
		t.Fatal("retried compaction changed the answer surface")
	}
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("PostFail"), P: iri("sponsor"), O: iri("B1432")},
	}); err != nil {
		t.Fatalf("insert after recovered failure: %v", err)
	}
}

// TestCompactWriteFaultKeepsOriginal: a permanent write fault on the
// compaction's new pages file fails the compaction before the swap, with
// the original files byte for byte as they were, no temporaries left
// behind, and the index still answering; a retry, whose files write,
// compacts.
func TestCompactWriteFaultKeepsOriginal(t *testing.T) {
	base := filepath.Join(t.TempDir(), "wfault")
	// The second page file WrapIO sees is the first compaction's.
	files := 0
	ix, err := Build(base, figure1Graph(), Options{
		WrapIO: func(io storage.PageIO) storage.PageIO {
			if files++; files != 2 {
				return io
			}
			fi := storage.NewFaultInjector(io)
			fi.Inject(storage.Fault{Op: storage.OpWrite, Kind: storage.Permanent})
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
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	onDisk := func() string {
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
	want, keys, epoch := onDisk(), livePathKeys(t, ix), ix.Epoch()

	_, err = ix.Compact(context.Background())
	if !errors.Is(err, storage.ErrPermanent) || !strings.Contains(err.Error(), "index: compact") {
		t.Fatalf("compaction whose pages do not write: err = %v, want the injected fault", err)
	}
	if onDisk() != want {
		t.Fatal("failed compaction changed the original files")
	}
	for _, tmp := range []string{pagesPath(base + ".compact"), metaPath(base + ".compact"), metaPath(base+".compact") + ".tmp"} {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("failed compaction left %s behind (%v)", tmp, err)
		}
	}
	if got := livePathKeys(t, ix); !slices.Equal(got, keys) || ix.Epoch() != epoch {
		t.Fatal("index answers differently after the failed compaction")
	}
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatalf("compaction whose files write: %v", err)
	}
	if got := livePathKeys(t, ix); !slices.Equal(got, keys) {
		t.Fatal("retried compaction changed the answer surface")
	}
}

// TestCompactEqualsBuild: a compacted index is Build of its graph under
// its budget — the same pages, byte for byte, and the same metadata but
// for the build time and the applied LSN — after streamed inserts, after
// hub-rooted ones on a sourceless graph, and with a budget of its own,
// reopened without it before the compaction. Each case first gives a
// root early in root order a new out-edge: the insert appends the
// root's new path after every other, where a build puts it among the
// root's paths.
func TestCompactEqualsBuild(t *testing.T) {
	stream := datasets.LUBM{}.Generate(8000, 1).Triples()
	lubm, err := rdf.NewGraphFromTriples(stream[:6000])
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]rdf.Triple
	for lo := 6000; lo < 6600; lo += 50 {
		batches = append(batches, stream[lo:lo+50])
	}
	var ring [][]rdf.Triple
	for i := range 6 {
		ring = append(ring, []rdf.Triple{{S: iri(fmt.Sprintf("r%d", 5*i)), P: iri("jump"), O: iri(fmt.Sprintf("r%d", 7*i+3))}})
	}
	budget := paths.Config{MaxLength: 5, MaxPerRoot: 64}
	for _, c := range []struct {
		name    string
		g       *rdf.Graph
		opts    Options
		batches [][]rdf.Triple
		reopen  bool
	}{
		{"lubm6k-streamed", lubm, Options{Thesaurus: textindex.BenchmarkThesaurus()}, batches, false},
		{"sourceless-hub-rooted", ringGraph(30), Options{Paths: paths.Config{MaxLength: 8}}, ring, false},
		{"own-budget-reopened", lubm.Clone(), Options{Paths: budget}, batches, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			base := filepath.Join(dir, "ix")
			ix, err := Build(base, c.g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			roots, cfg := c.g.PathRoots(), ix.opts.Paths
			for _, r := range roots[:len(roots)-1] {
				var w paths.Walker
				n := 0
				w.WalkFrom(c.g, r, cfg, func([]rdf.NodeID, []rdf.EdgeID) { n++ })
				if cfg.MaxPerRoot == 0 || n < cfg.MaxPerRoot {
					if err := ix.InsertTriples([]rdf.Triple{{S: c.g.Term(r), P: iri("grows"), O: iri("leaf")}}); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			half := len(c.batches) / 2
			for _, b := range c.batches[:half] {
				if err := ix.InsertTriples(b); err != nil {
					t.Fatal(err)
				}
			}
			if c.reopen {
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				if ix, err = Open(base, Options{Thesaurus: c.opts.Thesaurus}); err != nil {
					t.Fatal(err)
				}
			}
			defer ix.Close()
			for _, b := range c.batches[half:] {
				if err := ix.InsertTriples(b); err != nil {
					t.Fatal(err)
				}
			}
			if ix.LivePaths() == ix.NumPaths() {
				t.Fatal("test setup: the inserts tombstoned nothing")
			}
			if _, err := ix.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(filepath.Join(dir, "fresh"), ix.Graph().Clone(), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			got, err := os.ReadFile(pagesPath(base))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(pagesPath(fresh.base))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error(".pages differ from a fresh build's")
			}
			if !bytes.Equal(metaBytes(t, ix), metaBytes(t, fresh)) {
				t.Error("the metadata differs from a fresh build's (build time and applied LSN aside)")
			}
		})
	}
}

// TestCompactKeepsPoolSize: the compacted index reads through a pool of
// the size the index was built with, so a full read of more pages than
// it holds evicts after the swap as it did before.
func TestCompactKeepsPoolSize(t *testing.T) {
	const pool = 4
	stream := datasets.LUBM{}.Generate(3000, 1).Triples()
	g, err := rdf.NewGraphFromTriples(stream[:2000])
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(filepath.Join(t.TempDir(), "pool"), g, Options{PoolPages: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertTriples(stream[2000:2100]); err != nil {
		t.Fatal(err)
	}
	evictions := func() uint64 {
		t.Helper()
		if err := ix.DropCache(); err != nil {
			t.Fatal(err)
		}
		before := ix.PoolStats().Evictions
		readAllLive(t, ix)
		return ix.PoolStats().Evictions - before
	}
	if n := evictions(); n == 0 {
		t.Fatalf("test setup: a full read of %d pages through a %d-page pool evicted nothing", ix.file.NumPages(), pool)
	}
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every page but the file's header holds a live record.
	pages := ix.file.NumPages()
	if n := evictions(); n < uint64(pages-pool-1) {
		t.Errorf("after the compaction a full read of %d pages evicted %d times; a %d-page pool evicts at least %d", pages, n, pool, pages-pool-1)
	}
}
