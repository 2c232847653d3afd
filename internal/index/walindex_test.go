package index

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sama/internal/datasets"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
)

// copyTree copies a file or directory tree — the crash simulation:
// everything visible on disk at the copy instant is what a process
// killed at that instant would find on restart.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	info, err := os.Stat(src)
	if err != nil {
		if os.IsNotExist(err) {
			return
		}
		t.Fatal(err)
	}
	if info.IsDir() {
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			copyTree(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
		}
		return
	}
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
}

// crashClone snapshots an index's on-disk state (pages, meta, WAL dir)
// into a fresh directory, as a kill at this instant would leave it, and
// returns the copy's base: reopening the copy, not the original, keeps
// clear of the original's lock.
func crashClone(t testing.TB, base string) string {
	t.Helper()
	cloneBase := filepath.Join(t.TempDir(), "ix")
	copyTree(t, pagesPath(base), pagesPath(cloneBase))
	copyTree(t, metaPath(base), metaPath(cloneBase))
	copyTree(t, walPath(base), walPath(cloneBase))
	return cloneBase
}

var walTestTriples = []rdf.Triple{
	{S: iri("NewSenator"), P: iri("sponsor"), O: iri("B1432")},
	{S: iri("NewSenator"), P: iri("gender"), O: lit("Female")},
}

// TestOpenLocksBase: while one handle has a base open — across its
// checkpoints and a compaction swap — a second Open or Build of the
// base, whose checkpoint would rewrite the log under the first's
// appends, fails with an error naming the base; after Close, Open
// succeeds.
func TestOpenLocksBase(t *testing.T) {
	base := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	second := func(step string) {
		t.Helper()
		if re, err := Open(base, Options{}); err == nil || !strings.Contains(err.Error(), base) {
			if re != nil {
				re.Close()
			}
			t.Fatalf("%s: a second Open: err = %v, want one naming %s", step, err, base)
		}
		if re, err := Build(base, figure1Graph(), Options{}); err == nil || !strings.Contains(err.Error(), base) {
			if re != nil {
				re.Close()
			}
			t.Fatalf("%s: a second Build: err = %v, want one naming %s", step, err, base)
		}
	}
	second("built")
	if err := ix.InsertTriples(walTestTriples); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	second("checkpointed and compacted")
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(base, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenMissingBaseLeavesNoLock: an Open of a path with no index fails
// and takes away the lock file it created, so the directory is as it
// was and a later Build there succeeds; a failed Open of an existing
// index keeps the lock file it found.
func TestOpenMissingBaseLeavesNoLock(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	if re, err := Open(base, Options{}); err == nil {
		re.Close()
		t.Fatal("Open of a fresh path succeeded")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("after a failed Open the directory holds %v (err %v), want nothing", entries, err)
	}
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatalf("Build after a failed Open: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(metaPath(base)); err != nil {
		t.Fatal(err)
	}
	if re, err := Open(base, Options{}); err == nil {
		re.Close()
		t.Fatal("Open without the metadata succeeded")
	}
	if _, err := os.Stat(base + ".lock"); err != nil {
		t.Fatalf("a failed Open of an existing index took its lock file: %v", err)
	}
}

// TestInsertTriplesAllOrNothing: a mid-insert storage fault must leave
// the index answering exactly as before — no half-applied tombstones, no
// phantom paths, no epoch bump — and the data graph as it was, so that
// the metadata written next, which carries the graph, still matches the
// paths: reopened, the index inserts like a rebuild without the failed
// batch.
func TestInsertTriplesAllOrNothing(t *testing.T) {
	base := filepath.Join(t.TempDir(), "ix")
	var fi *storage.FaultInjector
	ix, err := Build(base, figure1Graph(), Options{
		WrapIO: func(io storage.PageIO) storage.PageIO {
			fi = storage.NewFaultInjector(io)
			return fi
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	want := livePathKeys(t, ix)
	epoch := ix.Epoch()
	live := ix.LivePaths()
	graph := graphState(ix)

	// Insert a new edge out of an existing root: the update must verify
	// (read) that root's current paths to keep or tombstone them. With a cold
	// cache and permanent read faults that verification cannot succeed,
	// so the insert fails mid-way — exactly the partial-failure window
	// the old code left half-applied (epoch bumped, errors ignored).
	if err := ix.DropCache(); err != nil {
		t.Fatal(err)
	}
	fi.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.Permanent})
	err = ix.InsertTriples([]rdf.Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A9999")},
	})
	fi.Clear()
	if err == nil {
		t.Fatal("insert under permanent read faults succeeded")
	}
	if got := ix.Epoch(); got != epoch {
		t.Fatalf("failed insert bumped the epoch: %d -> %d", epoch, got)
	}
	if got := ix.LivePaths(); got != live {
		t.Fatalf("failed insert changed live paths: %d -> %d", live, got)
	}
	if got := livePathKeys(t, ix); !slices.Equal(got, want) {
		t.Fatal("failed insert changed the answer surface")
	}
	if got := graphState(ix); got != graph {
		t.Fatalf("failed insert changed the graph:\n%s\nwant\n%s", got, graph)
	}

	// The same fault one phase later, while staging. A brand-new root
	// has nothing to tombstone, so the insert gets as far as appending
	// its first record — to a page the cold pool must read back — with
	// the path's new terms already interned. The failed insert has to
	// take them out again, or the next metadata write persists a
	// dictionary of terms no record uses.
	meta := func() []byte {
		t.Helper()
		ix.mu.Lock()
		err := ix.writeMeta()
		ix.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(metaPath(base))
		if err != nil {
			t.Fatal(err)
		}
		return withoutLSN(raw)
	}
	metaBefore, terms := meta(), ix.dict.Len()
	fresh := []rdf.Triple{{S: iri("FreshRoot"), P: iri("backs"), O: iri("FreshBill")}}
	if err := ix.DropCache(); err != nil {
		t.Fatal(err)
	}
	fi.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.Permanent})
	err = ix.InsertTriples(fresh)
	fi.Clear()
	if err == nil || !strings.Contains(err.Error(), "stage path") {
		t.Fatalf("insert of a new root under permanent read faults: err = %v, want a staging failure", err)
	}
	if got := ix.dict.Len(); got != terms {
		t.Fatalf("failed insert left %d terms in the dictionary, want %d", got, terms)
	}
	if !bytes.Equal(meta(), metaBefore) {
		t.Fatal("failed insert changed the metadata the next checkpoint writes")
	}
	if got := ix.Epoch(); got != epoch {
		t.Fatalf("failed insert bumped the epoch: %d -> %d", epoch, got)
	}
	if got := graphState(ix); got != graph {
		t.Fatalf("failed staging changed the graph:\n%s\nwant\n%s", got, graph)
	}

	// Checkpointed and reopened (a copy: ix stays open), the index holds
	// neither failed batch, and an insert on the failed batch's subject
	// lands as it would on a rebuild of the graph without it.
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(crashClone(t, base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	more := []rdf.Triple{{S: iri("FreshRoot"), P: iri("backs"), O: iri("OtherBill")}}
	if err := re.InsertTriples(more); err != nil {
		t.Fatal(err)
	}
	rebuilt := figure1Graph()
	rebuilt.AddTriple(more[0])
	ref, err := Build(filepath.Join(t.TempDir(), "ref"), rebuilt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if got, want := livePathKeys(t, re), livePathKeys(t, ref); !slices.Equal(got, want) {
		t.Fatalf("reopened index after a failed insert: %d live paths, a rebuild without the batch %d", len(got), len(want))
	}
	if got, want := graphOrder(re.Graph()), graphOrder(rebuilt); got != want {
		t.Fatalf("reopened graph:\n%s\nwant\n%s", got, want)
	}

	// Retrying a failed batch once the fault is gone completes it.
	for _, batch := range [][]rdf.Triple{
		{{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A9999")}},
		fresh,
	} {
		if err := ix.InsertTriples(batch); err != nil {
			t.Fatalf("retry after fault cleared: %v", err)
		}
		if got := ix.LivePaths(); got <= live {
			t.Fatalf("retried insert added no paths (%d -> %d)", live, got)
		}
		live = ix.LivePaths()
	}
	if got := ix.dict.Len(); got != terms+4 {
		t.Fatalf("retried inserts interned %d terms, want 4 (A9999, FreshRoot, backs, FreshBill)", got-terms)
	}
	requireReopenedEqualsBuild(t, ix)

	t.Run("mixed", testInsertAllOrNothingMixed)
	t.Run("affected-root-page", testInsertAllOrNothingAffectedRootPage)
	t.Run("stage-spans-pages", testInsertAllOrNothingStageSpansPages)
	t.Run("stage-truncates-terms", testInsertAllOrNothingStageTruncatesTerms)
}

// requireReopenedEqualsBuild checkpoints ix, opens a copy of its files
// and requires the copy's live paths — every record read back by its
// path ID and its term IDs decoded — to be those of a fresh Build of the
// same triples.
func requireReopenedEqualsBuild(t *testing.T, ix *Index) {
	t.Helper()
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(crashClone(t, ix.base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	g := rdf.NewGraph()
	for _, tr := range ix.Graph().Triples() {
		g.AddTriple(tr)
	}
	ref, err := Build(filepath.Join(t.TempDir(), "ref"), g, Options{Paths: ix.opts.Paths})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if got, want := livePathKeys(t, re), livePathKeys(t, ref); !slices.Equal(got, want) {
		t.Fatalf("reopened index: %d live paths differ from a fresh build's %d", len(got), len(want))
	}
	if got, want := graphState(re), graphState(ix); got != want {
		t.Fatalf("reopened graph:\n%s\nwant\n%s", got, want)
	}
}

// testInsertAllOrNothingStageSpansPages fails staging after it filled
// the page open for appends and a fresh one: with a pool of one page,
// opening a third evicts the second, whose write fails. The store must
// forget the staged records and the run it opened for them, so that the
// retry's paths read back under their own IDs after a checkpoint and a
// reopen.
func testInsertAllOrNothingStageSpansPages(t *testing.T) {
	var fi *storage.FaultInjector
	ix, err := Build(filepath.Join(t.TempDir(), "ix"), figure1Graph(), Options{
		PoolPages: 1,
		WrapIO: func(io storage.PageIO) storage.PageIO {
			fi = storage.NewFaultInjector(io)
			return fi
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var batch []rdf.Triple
	for i := range 2500 {
		batch = append(batch, rdf.Triple{S: iri(fmt.Sprintf("FreshRoot%d", i)), P: iri("backs"), O: iri(fmt.Sprintf("FreshBill%d", i))})
	}
	if err := ix.DropCache(); err != nil {
		t.Fatal(err)
	}
	paths, pages, runs, graph := ix.NumPaths(), ix.file.NumPages(), len(ix.store.Directory()), graphState(ix)
	fi.Inject(storage.Fault{Op: storage.OpWrite, Kind: storage.Permanent, AfterN: 1})
	err = ix.InsertTriples(batch)
	fi.Clear()
	if err == nil || !strings.Contains(err.Error(), "stage path") {
		t.Fatalf("insert under a write fault on the second eviction: err = %v, want a staging failure", err)
	}
	if ix.file.NumPages() < pages+2 {
		t.Fatalf("staging allocated %d pages before failing; the test needs it to open a run and fail on the next", ix.file.NumPages()-pages)
	}
	if ix.NumPaths() != paths || ix.store.Len() != paths || len(ix.store.Directory()) != runs {
		t.Fatalf("failed staging left %d paths, %d store IDs and %d runs; want %d, %d and %d",
			ix.NumPaths(), ix.store.Len(), len(ix.store.Directory()), paths, paths, runs)
	}
	if got := graphState(ix); got != graph {
		t.Fatalf("failed staging changed the graph:\n%s\nwant\n%s", got, graph)
	}
	if err := ix.InsertTriples(batch); err != nil {
		t.Fatalf("retry after fault cleared: %v", err)
	}
	if got := ix.NumPaths() - paths; got != len(batch) {
		t.Fatalf("retry staged %d paths, want %d", got, len(batch))
	}
	requireReopenedEqualsBuild(t, ix)
}

// testInsertAllOrNothingAffectedRootPage fails the batched read of the
// affected roots' indexed paths with a permanent fault on the one page
// holding a root's record: the insert fails before staging, and the
// graph, records, postings and tombstones are as found.
func testInsertAllOrNothingAffectedRootPage(t *testing.T) {
	var fi *storage.FaultInjector
	ix, err := Build(filepath.Join(t.TempDir(), "ix"), figure1Graph(), Options{
		WrapIO: func(io storage.PageIO) storage.PageIO {
			fi = storage.NewFaultInjector(io)
			return fi
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	page := storage.PageID(0)
	for id := 0; id < ix.NumPaths() && page == 0; id++ {
		if p, err := pathByID(ix, PathID(id)); err != nil {
			t.Fatal(err)
		} else if p.Source() == iri("CarlaBunes") {
			page = pathPage(ix, PathID(id))
		}
	}
	if page == 0 {
		t.Fatal("no indexed path starts at CarlaBunes")
	}
	// state is everything the metadata persists but the applied LSN —
	// records, summaries, tombstones, postings, dictionary, graph — plus
	// the in-memory log.
	state := func() string {
		t.Helper()
		var b bytes.Buffer
		ix.mu.Lock()
		err := ix.encodeMeta(bufio.NewWriter(&b))
		tombs := len(ix.tombs)
		ix.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x tombs=%d epoch=%d", withoutLSN(b.Bytes()), tombs, ix.Epoch())
	}
	want, keys := state(), livePathKeys(t, ix)

	if err := ix.DropCache(); err != nil {
		t.Fatal(err)
	}
	fi.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.Permanent, Page: page})
	err = ix.InsertTriples([]rdf.Triple{{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A7777")}})
	fi.Clear()
	if err == nil || !strings.Contains(err.Error(), "affected roots") {
		t.Fatalf("insert with the affected root's page unreadable: err = %v, want a failed read of its paths", err)
	}
	if state() != want {
		t.Fatal("failed insert changed the records, postings, tombstones or graph")
	}
	if got := livePathKeys(t, ix); !slices.Equal(got, keys) {
		t.Fatal("failed insert changed the answer surface")
	}
}

// testInsertAllOrNothingMixed fails, while staging, a batch that keeps
// some re-enumerated paths, changes another and adds new ones: the kept
// IDs and the tombstones stay as found, and the retry keeps exactly the
// unchanged paths' IDs.
func testInsertAllOrNothingMixed(t *testing.T) {
	// Filler roots after Figure 1's put the page open for appends past
	// the page holding JeffRyser's and F0's records, so the fault below
	// fails the append without failing the reads that verify them.
	g := figure1Graph()
	for i := 0; i < 3000; i++ {
		g.AddTriple(rdf.Triple{S: iri(fmt.Sprintf("F%d", i)), P: iri("p"), O: iri(fmt.Sprintf("G%d", i))})
	}
	var fi *storage.FaultInjector
	ix, err := Build(filepath.Join(t.TempDir(), "mixed"), g, Options{
		WrapIO: func(io storage.PageIO) storage.PageIO {
			fi = storage.NewFaultInjector(io)
			return fi
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	idsFrom := func(source string) []PathID {
		t.Helper()
		var out []PathID
		for id := 0; id < ix.NumPaths(); id++ {
			if !ix.Live(PathID(id)) {
				continue
			}
			p, err := pathByID(ix, PathID(id))
			if err != nil {
				t.Fatal(err)
			}
			if p.Source() == iri(source) {
				out = append(out, PathID(id))
			}
		}
		return out
	}
	jeff, f0 := idsFrom("JeffRyser"), idsFrom("F0")
	appendPage := pathPage(ix, PathID(ix.NumPaths()-1))
	for _, id := range append(slices.Clone(jeff), f0...) {
		if pathPage(ix, id) == appendPage {
			t.Fatalf("path %d is on the append page %d; the test needs it elsewhere", id, appendPage)
		}
	}
	want, epoch, paths, live := livePathKeys(t, ix), ix.Epoch(), ix.NumPaths(), ix.LivePaths()
	graph := graphState(ix)

	// Jeff's two paths re-enumerate unchanged and gain a third; F0's path
	// is extended by an out-edge on its sink G0.
	batch := []rdf.Triple{
		{S: iri("JeffRyser"), P: iri("sponsor"), O: iri("A7777")},
		{S: iri("G0"), P: iri("q"), O: iri("H0")},
	}
	if err := ix.DropCache(); err != nil {
		t.Fatal(err)
	}
	terms := ix.dict.Len()
	fi.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.Permanent, Page: appendPage})
	err = ix.InsertTriples(batch)
	fi.Clear()
	if err == nil || !strings.Contains(err.Error(), "stage path") {
		t.Fatalf("mixed insert under a fault on the append page: err = %v, want a staging failure", err)
	}
	if ix.Epoch() != epoch || ix.NumPaths() != paths || ix.LivePaths() != live || ix.dict.Len() != terms {
		t.Fatalf("failed insert changed the index: epoch %d→%d, paths %d→%d, live %d→%d, terms %d→%d",
			epoch, ix.Epoch(), paths, ix.NumPaths(), live, ix.LivePaths(), terms, ix.dict.Len())
	}
	if !slices.Equal(livePathKeys(t, ix), want) {
		t.Fatal("failed insert changed the answer surface")
	}
	if got := graphState(ix); got != graph {
		t.Fatalf("failed insert changed the graph:\n%s\nwant\n%s", got, graph)
	}

	if err := ix.InsertTriples(batch); err != nil {
		t.Fatalf("retry after fault cleared: %v", err)
	}
	if got := ix.NumPaths() - paths; got != 2 {
		t.Errorf("retry staged %d paths, want 2 (Jeff's new one and F0's extension)", got)
	}
	if got := ix.LivePaths() - live; got != 1 {
		t.Errorf("retry added %d live paths, want 1", got)
	}
	requireReopenedEqualsBuild(t, ix)
	for _, id := range jeff {
		if !ix.Live(id) {
			t.Errorf("JeffRyser's unchanged path %d lost its ID", id)
		}
	}
	for _, id := range f0 {
		if ix.Live(id) {
			t.Errorf("F0's changed path %d is still live", id)
		}
	}
}

// testInsertAllOrNothingStageTruncatesTerms fails, while staging, a
// batch that reaches a cycle an earlier insert left unreached and whose
// graph additions intern terms of their own: the graph's columns, the
// dictionary and the paths are as found, the retry interns the batch's
// terms from the term count found on, subject, object, predicate, and,
// checkpointed and opened as a copy, equals a fresh build.
func testInsertAllOrNothingStageTruncatesTerms(t *testing.T) {
	var fi *storage.FaultInjector
	ix, err := Build(filepath.Join(t.TempDir(), "ix"), figure1Graph(), Options{
		WrapIO: func(io storage.PageIO) storage.PageIO {
			fi = storage.NewFaultInjector(io)
			return fi
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	before := ix.dict.Len()
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("Q1"), P: iri("loops"), O: iri("Q2")},
		{S: iri("Q2"), P: iri("loops"), O: iri("Q1")},
	}); err != nil {
		t.Fatal(err)
	}
	if n := ix.dict.Len() - before; n != 3 {
		t.Fatalf("an unreached cycle interned %d terms, want 3 (Q1, Q2, loops)", n)
	}
	graph, terms, paths, epoch, keys := graphState(ix), ix.dict.Len(), ix.NumPaths(), ix.Epoch(), livePathKeys(t, ix)
	batch := []rdf.Triple{
		{S: iri("FreshRoot"), P: iri("reaches"), O: iri("Q1")},
		{S: iri("FreshRoot"), P: iri("backs"), O: iri("FreshBill")},
	}
	if err := ix.DropCache(); err != nil {
		t.Fatal(err)
	}
	fi.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.Permanent})
	err = ix.InsertTriples(batch)
	fi.Clear()
	if err == nil || !strings.Contains(err.Error(), "stage path") {
		t.Fatalf("insert reaching the pending cycle under permanent read faults: err = %v, want a staging failure", err)
	}
	if got := graphState(ix); got != graph {
		t.Fatalf("failed staging changed the graph:\n%s\nwant\n%s", got, graph)
	}
	if ix.dict.Len() != terms || ix.NumPaths() != paths || ix.Epoch() != epoch || !slices.Equal(livePathKeys(t, ix), keys) {
		t.Fatalf("failed staging changed the index: terms %d→%d, paths %d→%d, epoch %d→%d",
			terms, ix.dict.Len(), paths, ix.NumPaths(), epoch, ix.Epoch())
	}
	if err := ix.InsertTriples(batch); err != nil {
		t.Fatalf("retry after fault cleared: %v", err)
	}
	// Subject, object, predicate: FreshRoot, reaches; FreshBill, backs.
	want := []rdf.Term{iri("FreshRoot"), iri("reaches"), iri("FreshBill"), iri("backs")}
	if got := ix.dict.terms[terms:]; !slices.Equal(got, want) {
		t.Fatalf("retry interned %v, want %v", got, want)
	}
	requireReopenedEqualsBuild(t, ix)
}

// graphState renders the index's ID graph as a failed insert must leave
// it: every column — term IDs, edges, out- and in-lists — and the graph
// spelt out (Graph).
func graphState(ix *Index) string {
	ix.mu.RLock()
	g := ix.graph
	cols := fmt.Sprintf("nodes %v\nfrom %v\nto %v\nlabel %v\nout %v\nin %v\n", g.nodeTerm, g.from, g.to, g.label, g.out, g.in)
	ix.mu.RUnlock()
	return cols + graphOrder(ix.Graph())
}

// withoutLSN drops the applied LSN from encoded metadata: a batch whose
// apply failed stays logged (commit limbo), so it moves the watermark,
// and nothing else may change.
func withoutLSN(meta []byte) []byte {
	_, n := binary.Uvarint(meta[len(metaMagic):])
	return append(slices.Clip(meta[:len(metaMagic)]), meta[len(metaMagic)+n:]...)
}

// graphOrder renders a graph's nodes in ID order, each with its
// out-edges in Out order, and its edge count.
func graphOrder(g *rdf.Graph) string {
	var b strings.Builder
	for n := rdf.NodeID(0); int(n) < g.NodeCount(); n++ {
		fmt.Fprintf(&b, "%d %v:", n, g.Term(n))
		for _, e := range g.Out(n) {
			fmt.Fprintf(&b, " %d %v→%d", e, g.Edge(e).Label, g.Edge(e).To)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d edges", g.EdgeCount())
	return b.String()
}

// TestWALAutoCheckpointTruncates: inserts past CheckpointBytes trigger
// a checkpoint that shrinks the WAL and survives reopen without replay.
func TestWALAutoCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	ix, err := Build(base, figure1Graph(), Options{
		CheckpointBytes: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := ix.InsertTriples([]rdf.Triple{{
			S: iri(fmt.Sprintf("SenatorWithALongIRI%04d", i)),
			P: iri("sponsor"),
			O: iri("A0056"),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	st := ix.WALStats()
	if st.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoint fired: %+v", st)
	}
	if uint64(st.Bytes) >= st.AppendedBytes {
		t.Fatalf("checkpoints reclaimed nothing: live %d of %d appended", st.Bytes, st.AppendedBytes)
	}
	want := livePathKeys(t, ix)

	// Kill right after the checkpoints: replay must start at the
	// watermark, not at LSN 1.
	cb := crashClone(t, base)
	ix.Close()
	re, err := Open(cb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := livePathKeys(t, re); !slices.Equal(got, want) {
		t.Fatal("answers after checkpointed crash diverge")
	}
}

// TestTripleCodecRoundtrip pins the WAL payload format.
func TestTripleCodecRoundtrip(t *testing.T) {
	ts := []rdf.Triple{
		{S: iri("a"), P: iri("p"), O: lit("plain")},
		{S: rdf.NewBlank("b0"), P: iri("q"), O: rdf.NewTypedLiteral("5", "http://www.w3.org/2001/XMLSchema#int")},
		{S: iri("c"), P: iri("r"), O: rdf.NewLangLiteral("ciao", "it")},
	}
	back, err := decodeTriples(encodeTriples(ts))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ts) {
		t.Fatalf("decoded %d triples, want %d", len(back), len(ts))
	}
	for i := range ts {
		if back[i] != ts[i] {
			t.Fatalf("triple %d: %v != %v", i, back[i], ts[i])
		}
	}
	// Truncations are rejected, not misparsed.
	enc := encodeTriples(ts)
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := decodeTriples(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestWALAutoCheckpointConcurrentInserts: concurrent inserters that
// each trigger the auto-checkpoint all succeed, and every record is
// appended — the writer lock runs each insert's append, apply and
// checkpoint as one turn, so a checkpoint never meets another
// inserter's commit.
func TestWALAutoCheckpointConcurrentInserts(t *testing.T) {
	dir := t.TempDir()
	ix, err := Build(filepath.Join(dir, "ix"), figure1Graph(), Options{
		// Checkpoint after every applied insert.
		CheckpointBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	const writers, inserts = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < inserts; j++ {
				if err := ix.InsertTriples([]rdf.Triple{{
					S: iri(fmt.Sprintf("CkptSen%d_%d", i, j)),
					P: iri("sponsor"),
					O: iri("A0056"),
				}}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	st := ix.WALStats()
	if st.Appends != writers*inserts {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*inserts)
	}
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoint fired")
	}
}

// TestWALCheckpointDuringInsertCommit: a checkpoint called while an
// insert's WAL commit is mid-fsync waits for the insert — the two share
// the writer lock — and then checkpoints it too, so a crash right after
// has nothing to replay. Queries read on meanwhile: they never wait for
// an fsync.
func TestWALCheckpointDuringInsertCommit(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	entered := make(chan struct{})
	release := make(chan struct{})
	var gate sync.Mutex
	gated := false
	ix, err := Build(base, figure1Graph(), Options{
		CheckpointBytes: -1, // explicit checkpoints only
		WALSyncHook: func() error {
			gate.Lock()
			g := gated
			gate.Unlock()
			if g {
				entered <- struct{}{}
				<-release
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.InsertTriples(walTestTriples); err != nil {
		t.Fatal(err)
	}

	liveBefore := ix.LivePaths()
	gate.Lock()
	gated = true
	gate.Unlock()
	inserted := make(chan error, 1)
	go func() {
		inserted <- ix.InsertTriples([]rdf.Triple{
			{S: iri("MidFlush"), P: iri("sponsor"), O: iri("A0056")},
		})
	}()
	<-entered // the insert's WAL commit is now mid-fsync

	if got := ix.LivePaths(); got != liveBefore {
		t.Fatalf("a query mid-fsync read %d live paths, want %d", got, liveBefore)
	}
	checkpointed := make(chan error, 1)
	go func() { checkpointed <- ix.Checkpoint() }()
	select {
	case err := <-checkpointed:
		t.Fatalf("Checkpoint returned (%v) while an insert's commit was mid-fsync", err)
	case <-time.After(20 * time.Millisecond):
	}

	gate.Lock()
	gated = false
	gate.Unlock()
	close(release)
	if err := <-inserted; err != nil {
		t.Fatalf("insert the checkpoint waited for: %v", err)
	}
	if err := <-checkpointed; err != nil {
		t.Fatalf("checkpoint after the insert: %v", err)
	}
	if got := ix.LivePaths(); got <= liveBefore {
		t.Fatalf("mid-fsync insert added no paths (%d -> %d)", liveBefore, got)
	}
	want := livePathKeys(t, ix)

	cb := crashClone(t, base)
	re, err := Open(cb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.Recovery(); rs.Records != 0 {
		t.Fatalf("replayed %d records after the checkpoint, want 0", rs.Records)
	}
	if got := livePathKeys(t, re); !slices.Equal(got, want) {
		t.Fatal("answers after the checkpoint + crash diverge")
	}
}

// TestInsertRacingCloseIsAllOrNothing: inserts racing Close either land
// whole before it — durable, present after a reopen — or fail with
// nothing logged, absent after it. None hangs, and none is left in
// commit limbo: appended, failed, and replayed on the reopen anyway.
func TestInsertRacingCloseIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, inserts = 6, 20
	subject := func(i, j int) string { return fmt.Sprintf("CloseRacer%d_%d", i, j) }
	ok := make([][]bool, writers)
	var landed atomic.Int32
	var wg sync.WaitGroup
	for i := range ok {
		ok[i] = make([]bool, inserts)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := range ok[i] {
				ok[i][j] = ix.InsertTriples([]rdf.Triple{{
					S: iri(subject(i, j)), P: iri("sponsor"), O: iri("A0056"),
				}}) == nil
				if ok[i][j] {
					landed.Add(1)
				}
			}
		}(i)
	}
	// Close once the inserts are under way.
	for landed.Load() < writers {
		time.Sleep(100 * time.Microsecond)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("Close racing inserts: %v", err)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("an insert racing Close hung")
	}

	re, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	g := re.Graph()
	for i := range ok {
		for j, acked := range ok[i] {
			present := g.NodeByTerm(iri(subject(i, j))) != rdf.InvalidNode
			if present != acked {
				t.Errorf("insert %s: returned nil = %v, present after reopen = %v", subject(i, j), acked, present)
			}
		}
	}
	t.Logf("%d of %d inserts landed before Close", landed.Load(), writers*inserts)
}

// TestOpenKeepsPathBudget: the metadata records the build's path
// budget, so an index reopened without it inserts under it, and so does
// the replay of a crashed copy's log.
func TestOpenKeepsPathBudget(t *testing.T) {
	budget := paths.Config{MaxLength: 3, MaxPerRoot: 4096}
	stream := datasets.LUBM{}.Generate(3000, 1).Triples()
	g, err := rdf.NewGraphFromTriples(stream[:2000])
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(base, g, Options{Paths: budget})
	if err != nil {
		t.Fatal(err)
	}
	longest := func(what string, ix *Index) {
		t.Helper()
		n := 0
		for id, l := range ix.lens {
			if ix.Live(PathID(id)) {
				n = max(n, int(l))
			}
		}
		if n != budget.MaxLength {
			t.Errorf("%s: the longest live path has %d nodes, want the budget's %d", what, n, budget.MaxLength)
		}
	}
	if err := ix.InsertTriples(stream[2000:2200]); err != nil {
		t.Fatal(err)
	}
	longest("built", ix)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if ix, err = Open(base, Options{}); err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if got := ix.opts.Paths; got != budget {
		t.Fatalf("reopened with budget %+v, want the build's %+v", got, budget)
	}
	if err := ix.InsertTriples(stream[2200:2400]); err != nil {
		t.Fatal(err)
	}
	longest("reopened", ix)
	re, err := Open(crashClone(t, base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.Recovery(); rs.Records == 0 {
		t.Fatal("test setup: the crashed copy replayed nothing")
	}
	longest("replayed", re)
}
