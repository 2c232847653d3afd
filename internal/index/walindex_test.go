package index

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sama/internal/rdf"
	"sama/internal/storage"
)

// copyTree copies a file or directory tree — the crash simulation:
// everything visible on disk at the copy instant is what a process
// killed at that instant would find on restart.
func copyTree(t *testing.T, src, dst string) {
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

// crashClone snapshots a WAL-enabled index's on-disk state (pages,
// meta, sidecar, WAL dir) into a fresh directory, as a kill at this
// instant would leave it.
func crashClone(t *testing.T, base, walDir string) (cloneBase, cloneWAL string) {
	t.Helper()
	dir := t.TempDir()
	cloneBase = filepath.Join(dir, "ix")
	cloneWAL = filepath.Join(dir, "wal")
	copyTree(t, pagesPath(base), pagesPath(cloneBase))
	copyTree(t, metaPath(base), metaPath(cloneBase))
	copyTree(t, sidecarPath(base), sidecarPath(cloneBase))
	copyTree(t, walDir, cloneWAL)
	return cloneBase, cloneWAL
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var walTestTriples = []rdf.Triple{
	{S: iri("NewSenator"), P: iri("sponsor"), O: iri("B1432")},
	{S: iri("NewSenator"), P: iri("gender"), O: lit("Female")},
}

// TestWALDurabilityAcrossCrash: an insert acknowledged by a WAL-enabled
// index survives a kill with no flush — reopen + Recover replays it.
func TestWALDurabilityAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	walDir := filepath.Join(dir, "wal")
	ix, err := Build(base, figure1Graph(), Options{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertTriples(walTestTriples); err != nil {
		t.Fatal(err)
	}
	want := livePathKeys(t, ix)

	// Kill: no Flush, no Close — only what Build wrote plus the WAL.
	cb, cw := crashClone(t, base, walDir)
	ix.Close()

	re, err := Open(cb, Options{WALDir: cw})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.NeedsRecovery(); n != 1 {
		t.Fatalf("NeedsRecovery = %d, want 1 pending record", n)
	}
	// Writes are refused until the graph is recovered.
	if err := re.InsertTriples(walTestTriples); !errors.Is(err, ErrNeedsRecovery) {
		t.Fatalf("insert before Recover: err=%v, want ErrNeedsRecovery", err)
	}
	rs, err := re.Recover(figure1Graph())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Records != 1 || rs.Triples != len(walTestTriples) {
		t.Fatalf("recovery stats = %+v, want 1 record / %d triples", rs, len(walTestTriples))
	}
	if got := livePathKeys(t, re); !equalKeys(got, want) {
		t.Fatalf("answers after crash+recover diverge:\n got %d paths\nwant %d paths", len(got), len(want))
	}
	// Recovered index accepts writes again.
	if err := re.InsertTriples([]rdf.Triple{
		{S: iri("Another"), P: iri("sponsor"), O: iri("A0056")},
	}); err != nil {
		t.Fatalf("insert after recover: %v", err)
	}
}

// TestWALCleanCloseNeedsNoReplay: a checkpointed (cleanly closed) index
// reopens with zero pending records, and Recover is a cheap attach.
func TestWALCleanCloseNeedsNoReplay(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	walDir := filepath.Join(dir, "wal")
	ix, err := Build(base, figure1Graph(), Options{WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertTriples(walTestTriples); err != nil {
		t.Fatal(err)
	}
	want := livePathKeys(t, ix)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// The metadata recorded the WAL dir: no option needed on reopen.
	re, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.NeedsRecovery(); n != 0 {
		t.Fatalf("NeedsRecovery = %d, want 0 after clean close", n)
	}
	rs, err := re.Recover(figure1Graph())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 0 {
		t.Fatalf("replayed %d records after clean close, want 0", rs.Records)
	}
	// The sidecar restored the inserted triples to the graph.
	if rs.SidecarTriples != len(walTestTriples) {
		t.Fatalf("sidecar triples = %d, want %d", rs.SidecarTriples, len(walTestTriples))
	}
	if got := livePathKeys(t, re); !equalKeys(got, want) {
		t.Fatal("answers after clean close + reopen diverge")
	}
	// The recovered graph is complete: inserting more triples that hang
	// off the sidecar-restored ones works.
	if err := re.InsertTriples([]rdf.Triple{
		{S: iri("Third"), P: iri("sponsor"), O: iri("B1432")},
	}); err != nil {
		t.Fatalf("insert after sidecar recovery: %v", err)
	}
}

// TestInsertTriplesAllOrNothing is the satellite regression test: a
// mid-insert storage fault must leave the index answering exactly as
// before — no half-applied tombstones, no phantom paths, no epoch bump.
// Pre-fix, InsertTriples bumped the epoch and tombstoned in place
// before the failing append, so this test fails on the old code.
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
	if got := livePathKeys(t, ix); !equalKeys(got, want) {
		t.Fatal("failed insert changed the answer surface")
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
		return raw
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

	// The documented retry contract: the graph absorbed the triples
	// (idempotently), so retrying the same batch completes the insert.
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

	t.Run("mixed", testInsertAllOrNothingMixed)
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
	for i := 0; i < 1000; i++ {
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
			p, err := ix.Path(PathID(id))
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
	appendPage := ix.rids[len(ix.rids)-1].Page
	for _, id := range append(slices.Clone(jeff), f0...) {
		if ix.rids[id].Page == appendPage {
			t.Fatalf("path %d is on the append page %d; the test needs it elsewhere", id, appendPage)
		}
	}
	want, epoch, paths, live := livePathKeys(t, ix), ix.Epoch(), ix.NumPaths(), ix.LivePaths()

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
	if !equalKeys(livePathKeys(t, ix), want) {
		t.Fatal("failed insert changed the answer surface")
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

// TestWALGroupCommitThroughIndex: concurrent InsertTriples share WAL
// fsyncs through group commit.
func TestWALGroupCommitThroughIndex(t *testing.T) {
	dir := t.TempDir()
	// Batching needs appends to overlap a commit in flight, and on a
	// fast filesystem the fsync window is too narrow for the scheduler
	// to hit reliably (under -race goroutines serialise aggressively).
	// The sync hook widens every commit by a fraction of a millisecond,
	// so followers pile into the leader's next batch deterministically.
	ix, err := Build(filepath.Join(dir, "ix"), figure1Graph(), Options{
		WALDir:      filepath.Join(dir, "wal"),
		WALSyncHook: func() error { time.Sleep(200 * time.Microsecond); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	const writers, rounds = 8, 20
	total := 0
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					errs[i] = ix.InsertTriples([]rdf.Triple{{
						S: iri(fmt.Sprintf("Sen%d_%d_%d", r, i, j)),
						P: iri("sponsor"),
						O: iri("A0056"),
					}})
					if errs[i] != nil {
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d writer %d: %v", r, i, err)
			}
		}
		total += writers * 10
		st, ok := ix.WALStats()
		if !ok {
			t.Fatal("no WAL stats on a WAL-enabled index")
		}
		if st.Appends != uint64(total) {
			t.Fatalf("appends = %d, want %d", st.Appends, total)
		}
		if st.Syncs < st.Appends {
			return // at least one group commit batched >1 append
		}
	}
	t.Fatalf("no group commit batching across %d concurrent appends", total)
}

// TestWALAutoCheckpointTruncates: inserts past CheckpointBytes trigger
// a checkpoint that shrinks the WAL and survives reopen without replay.
func TestWALAutoCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	walDir := filepath.Join(dir, "wal")
	ix, err := Build(base, figure1Graph(), Options{
		WALDir:          walDir,
		WALSegmentBytes: 512,
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
	st, _ := ix.WALStats()
	if st.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoint fired: %+v", st)
	}
	if uint64(st.Bytes) >= st.AppendedBytes {
		t.Fatalf("checkpoints reclaimed nothing: live %d of %d appended", st.Bytes, st.AppendedBytes)
	}
	want := livePathKeys(t, ix)

	// Kill right after the checkpoints: replay must start at the
	// watermark, not at LSN 1.
	cb, cw := crashClone(t, base, walDir)
	ix.Close()
	re, err := Open(cb, Options{WALDir: cw})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Recover(figure1Graph()); err != nil {
		t.Fatal(err)
	}
	if got := livePathKeys(t, re); !equalKeys(got, want) {
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

// TestWALAutoCheckpointConcurrentInserts is the regression test for the
// checkpoint/group-commit race: InsertTriples appends to the WAL
// outside the index lock by design, so the auto-checkpoint (which runs
// under it) routinely overlaps another inserter's in-flight commit.
// Pre-fix, storage.WAL.Checkpoint refused with "checkpoint during an
// in-flight commit" and durably-logged, fully-applied inserts returned
// spurious errors once the WAL crossed CheckpointBytes.
func TestWALAutoCheckpointConcurrentInserts(t *testing.T) {
	dir := t.TempDir()
	ix, err := Build(filepath.Join(dir, "ix"), figure1Graph(), Options{
		WALDir:          filepath.Join(dir, "wal"),
		WALSegmentBytes: 256,
		// Checkpoint after every applied insert: the widest possible
		// overlap with the other writers' appends.
		CheckpointBytes: 1,
		// Widen each commit so overlaps happen deterministically even on
		// a fast filesystem (same trick as the group-commit test).
		WALSyncHook: func() error { time.Sleep(200 * time.Microsecond); return nil },
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
	st, _ := ix.WALStats()
	if st.Appends != writers*inserts {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*inserts)
	}
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoint fired; the race was never exercised")
	}
}

// TestWALCheckpointDuringInsertCommit pins the race deterministically:
// a checkpoint (under the index write lock) runs while another
// inserter's group commit is mid-flush (outside it, by design).
// Pre-fix the checkpoint errored instead of skipping the in-flight
// tail.
func TestWALCheckpointDuringInsertCommit(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{})
	release := make(chan struct{})
	var gate sync.Mutex
	gated := false
	ix, err := Build(filepath.Join(dir, "ix"), figure1Graph(), Options{
		WALDir:          filepath.Join(dir, "wal"),
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
	<-entered // the insert's WAL commit is now mid-flush

	if err := ix.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint during a concurrent insert's commit: %v", err)
	}

	gate.Lock()
	gated = false
	gate.Unlock()
	close(release)
	if err := <-inserted; err != nil {
		t.Fatalf("insert spanning the checkpoint: %v", err)
	}
	// The mid-flush insert landed (new paths rooted at MidFlush).
	if got := ix.LivePaths(); got <= liveBefore {
		t.Fatalf("mid-flush insert added no paths (%d -> %d)", liveBefore, got)
	}
	// And a now-quiescent checkpoint reclaims the log as usual.
	if err := ix.Checkpoint(); err != nil {
		t.Fatalf("quiescent checkpoint: %v", err)
	}
}

// TestCompactRewritesSidecar: the delta sidecar must not grow without
// bound. Each checkpoint appends a frame, but a compaction rewrites
// the accumulated frames as one deduplicated frame — so the file
// shrinks, and recovery re-reads distinct triples, not every append
// ever made.
func TestCompactRewritesSidecar(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ix")
	walDir := filepath.Join(dir, "wal")
	ix, err := Build(base, figure1Graph(), Options{WALDir: walDir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// Two checkpointed batches sharing a triple: the sidecar holds two
	// frames carrying four entries, one of them a duplicate.
	if err := ix.InsertTriples(walTestTriples); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertTriples([]rdf.Triple{
		walTestTriples[0],
		{S: iri("NewSenator"), P: iri("sponsor"), O: iri("A0056")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(sidecarPath(base))
	if err != nil {
		t.Fatal(err)
	}
	before := info.Size()

	if _, err := ix.CompactIncremental(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	info, err = os.Stat(sidecarPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() >= before {
		t.Errorf("compaction did not shrink the sidecar: %d -> %d bytes", before, info.Size())
	}
	want := livePathKeys(t, ix)

	// The rewritten sidecar still satisfies the recovery invariant, and
	// carries exactly the distinct inserted triples.
	cb, cw := crashClone(t, base, walDir)
	ix.Close()
	re, err := Open(cb, Options{WALDir: cw})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rs, err := re.Recover(figure1Graph())
	if err != nil {
		t.Fatal(err)
	}
	if rs.SidecarTriples != 3 {
		t.Errorf("sidecar triples after rewrite = %d, want 3 distinct", rs.SidecarTriples)
	}
	if got := livePathKeys(t, re); !equalKeys(got, want) {
		t.Fatalf("answers diverge after compact+crash+recover: %d vs %d paths", len(got), len(want))
	}
}
