package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/rdf"
	"sama/internal/storage"
	"sama/internal/textindex"
)

// hcQuery asks for everything filed under Health Care — a single query
// path whose cluster grows by one for every inserted (x, subject, HC)
// triple, which the epoch tests below exploit.
func hcQuery() *rdf.QueryGraph {
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("x"), P: iri("subject"), O: lit("Health Care")})
	return q
}

// TestConcurrentInsertsServeNoStaleAnswers hammers an engine with the
// alignment memo on with readers while a writer inserts Health-Care
// paths, under -race: every reader's lookup after an insert races the
// next insert through the memo's re-confirmation. The epoch contract
// under test: once a reader has observed n inserts completed, no later
// query may return an answer set predating them — a stale memo entry
// served as re-confirmed would surface fewer answers than the floor.
func TestConcurrentInsertsServeNoStaleAnswers(t *testing.T) {
	e := newTestEngine(t, Options{})
	base, st, err := e.QueryWithStats(hcQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Partial || len(base) == 0 {
		t.Fatalf("seed query: partial=%v answers=%d", st.Partial, len(base))
	}

	const inserts = 25
	var completed atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < inserts; i++ {
			err := e.idx.InsertTriples([]rdf.Triple{
				{S: iri("Bins" + string(rune('A'+i))), P: iri("subject"), O: lit("Health Care")},
			})
			if err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			completed.Add(1)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := completed.Load()
				answers, st, err := e.QueryWithStats(hcQuery(), 0)
				if err != nil {
					t.Error(err)
					return
				}
				if st.Partial {
					continue
				}
				// Every completed insert added one Health-Care path, so a
				// fresh (or validly re-confirmed) result has at least this
				// many answers. Fewer means a pre-insert memo entry escaped
				// re-confirmation.
				if want := len(base) + int(floor); len(answers) < want {
					t.Errorf("answers = %d after %d inserts, want ≥ %d (stale memo entry served)",
						len(answers), floor, want)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiescent check: the final state must also be exact.
	answers, _, err := e.QueryWithStats(hcQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(base) + inserts; len(answers) < want {
		t.Errorf("final answers = %d, want ≥ %d", len(answers), want)
	}
}

// clusterLines renders clusters item by item — ID, cost, data path — so
// two builds compare with ==.
func clusterLines(cs []Cluster) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "cluster %d retrieved=%d\n", c.QueryIndex, c.Retrieved)
		for ii, it := range c.Items {
			fmt.Fprintf(&b, "  %d %v %q\n", it.ID, it.Cost, c.Path(ii).Key())
		}
	}
	return b.String()
}

// TestAlignMemoReuse pins the memo's unit: one entry per query path, and
// a repeat served whole from it — the very items, the explain counters a
// full hit prints, no batched read.
func TestAlignMemoReuse(t *testing.T) {
	e := newTestEngine(t, Options{AlignCacheMB: 4})
	pre := e.Preprocess(queryQ1())
	n := uint64(len(pre.Paths))
	first, err := e.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats()[cacheAlign]; cs.Entries != len(pre.Paths) || cs.Misses != n || cs.Hits != 0 {
		t.Fatalf("after one build of %d query paths: %+v, want one entry and one miss each", n, cs)
	}
	second, err := e.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats()[cacheAlign]; cs.Entries != len(pre.Paths) || cs.Misses != n || cs.Hits != n {
		t.Fatalf("after the repeat: %+v, want %d hits and nothing else moved", cs, n)
	}
	for i := range first {
		if second[i].Retrieved != first[i].Retrieved || len(second[i].Items) != len(first[i].Items) ||
			&second[i].Items[0] != &first[i].Items[0] {
			t.Errorf("cluster %d: the hit does not share the first build's items", i)
		}
	}
	_, cold, err := New(e.idx, Options{}).QueryWithStats(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := e.QueryWithStats(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	want := firstAlignAttrs(t, "cold", cold.Plan())
	got := firstAlignAttrs(t, "warm", warm.Plan())
	if want["memo_hits"] != 0 || want["aligned"] < 1 || want["aligned"] > want["preranked"] || want["batched_pages"] == 0 {
		t.Errorf("cold align[0] = %v, want no hits, 1 ≤ aligned ≤ preranked, pages read", want)
	}
	if got["memo_hits"] != got["preranked"] || got["aligned"] != 0 {
		t.Errorf("warm align[0] = %v, want memo_hits = preranked and aligned = 0", got)
	}
	if _, ok := got["batched_pages"]; ok {
		t.Errorf("warm align[0] = %v, want no batched_pages", got)
	}
	for _, k := range []string{"preranked", "retrieved", "kept"} {
		if got[k] != want[k] {
			t.Errorf("warm align[0] %s = %d, cold %d", k, got[k], want[k])
		}
	}
}

// TestAlignMemoEpochBump: an entry freezes the candidate set, so an
// insert between two queries of one shape must make the second a miss
// whose cluster holds the new path.
func TestAlignMemoEpochBump(t *testing.T) {
	e := newTestEngine(t, Options{})
	pre := e.Preprocess(hcQuery())
	before, err := e.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.idx.InsertTriples([]rdf.Triple{
		{S: iri("B9999"), P: iri("subject"), O: lit("Health Care")},
	}); err != nil {
		t.Fatal(err)
	}
	after, err := e.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats()[cacheAlign]; cs.Hits != 0 || cs.Misses != 2 || cs.Invalidations != 1 || cs.Entries != 1 {
		t.Errorf("memo after build, insert, build: %+v, want 2 misses, 1 invalidation, 1 entry", cs)
	}
	if after[0].Retrieved != before[0].Retrieved+1 {
		t.Errorf("retrieved %d after the insert, %d before; want one more", after[0].Retrieved, before[0].Retrieved)
	}
	if !strings.Contains(clusterLines(after), "B9999") {
		t.Errorf("the inserted path is missing from the rebuilt cluster:\n%s", clusterLines(after))
	}
}

// onSinkLookup runs fn at every sink lookup, before the lookup itself.
type onSinkLookup struct {
	backend
	fn func()
}

func (b onSinkLookup) PathsBySinkInto(sc *index.Scratch, label string) []index.PathID {
	b.fn()
	return b.backend.PathsBySinkInto(sc, label)
}

// TestInsertWaitsForClusterPhase: an insert started from inside a
// cluster build queues on the index lock until the build's View ends —
// the build neither deadlocks nor sees it — and the next build misses
// the memo entry the first one stored and sees the insert.
func TestInsertWaitsForClusterPhase(t *testing.T) {
	e := newTestEngine(t, Options{})
	pre := e.Preprocess(hcQuery())
	var once sync.Once
	inserted := make(chan error, 1)
	e.wrap = func(r backend) backend {
		return onSinkLookup{backend: r, fn: func() {
			once.Do(func() {
				go func() {
					inserted <- e.idx.InsertTriples([]rdf.Triple{
						{S: iri("B9999"), P: iri("subject"), O: lit("Health Care")},
					})
				}()
				time.Sleep(20 * time.Millisecond) // the writer queues on the lock
			})
		}}
	}
	raced, err := e.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clusterLines(raced), "B9999") {
		t.Fatal("the build saw an insert that started inside its View")
	}
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	next, err := e.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(clusterLines(next), "B9999") {
		t.Errorf("the build after the insert was served pre-insert candidates:\n%s", clusterLines(next))
	}
	if cs := e.CacheStats()[cacheAlign]; cs.Hits != 0 || cs.Invalidations != 1 {
		t.Errorf("memo: %+v, want no hit and the first build's entry invalidated", cs)
	}
}

// failingReads fails every batched read with errInjected while on.
type failingReads struct {
	backend
	on *bool
}

var errInjected = errors.New("injected read failure")

func (b failingReads) ReadPathsBatched(ctx context.Context, ids []index.PathID) ([][]uint32, storage.Reads, error) {
	if *b.on {
		return nil, storage.Reads{}, errInjected
	}
	return b.backend.ReadPathsBatched(ctx, ids)
}

// TestAlignMemoKeepsNothingPartial: a build under a cancelled context
// (it aligns a prefix) and one whose batched read fails store nothing,
// and the next clean build returns the full cluster.
func TestAlignMemoKeepsNothingPartial(t *testing.T) {
	e := newTestEngine(t, Options{})
	pre := e.Preprocess(queryQ1())
	want, err := New(e.idx, Options{AlignCacheMB: -1}).Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := e.ClusterContext(ctx, pre)
	if err != nil {
		t.Fatal(err)
	}
	if clusterLines(partial) == clusterLines(want) {
		t.Fatal("the cancelled build aligned everything; the test needs it to stop short")
	}
	if n := e.CacheStats()[cacheAlign].Entries; n != 0 {
		t.Errorf("a cancelled build left %d memo entries", n)
	}

	failing := true
	e.wrap = func(r backend) backend { return failingReads{backend: r, on: &failing} }
	if _, err := e.Cluster(pre); !errors.Is(err, errInjected) {
		t.Fatalf("build over a failing batched read: err = %v, want the injected error", err)
	}
	if n := e.CacheStats()[cacheAlign].Entries; n != 0 {
		t.Errorf("a failed build left %d memo entries", n)
	}

	failing = false
	got, err := e.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	if clusterLines(got) != clusterLines(want) {
		t.Errorf("clean build after the partial ones:\n%s\nwant:\n%s", clusterLines(got), clusterLines(want))
	}
	if n := e.CacheStats()[cacheAlign].Entries; n != len(pre.Paths) {
		t.Errorf("memo entries = %d after a clean build, want %d", n, len(pre.Paths))
	}
}

// TestAlignMemoEvictionAndOff runs the cluster_param shapes twice
// through a memo too small to hold them (1 MiB: a 64 KiB slice per shard
// against ≈ 300 KB clusters, so every store evicts its neighbour) and
// through an engine with the memo off: a cluster rebuilt after its
// eviction equals the first build, and both equal the memo-less ones.
func TestAlignMemoEvictionAndOff(t *testing.T) {
	g := datasets.LUBM{}.Generate(4000, 3)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g,
		index.Options{Thesaurus: textindex.BenchmarkThesaurus(), PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	qs := clusterParamQueries(t, g)
	lap := func(e *Engine) []string {
		out := make([]string, len(qs))
		for i, gq := range qs {
			cs, err := e.Cluster(e.Preprocess(gq.q))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = clusterLines(cs)
		}
		return out
	}
	off := New(ix, Options{AlignCacheMB: -1})
	if _, ok := off.CacheStats()[cacheAlign]; ok {
		t.Error("AlignCacheMB < 0 still reports an align cache")
	}
	want := lap(off)

	small := New(ix, Options{AlignCacheMB: 1})
	first, again := lap(small), lap(small)
	cs := small.CacheStats()[cacheAlign]
	if cs.Evictions == 0 || cs.Misses <= uint64(cs.Entries) {
		t.Fatalf("the small memo never evicted and rebuilt: %+v", cs)
	}
	for i := range qs {
		if first[i] != want[i] || again[i] != want[i] {
			t.Fatalf("%s: clusters differ between memo off, first build and rebuild after eviction", qs[i].id)
		}
	}
}

// TestCacheMetricsExposed: after a cold and a warm run of Q1 the memo's
// families read one miss, one hit and one entry per query path.
func TestCacheMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t, Options{AlignCacheMB: 4, Metrics: reg})
	n := len(e.Preprocess(queryQ1()).Paths)
	if _, err := e.Query(queryQ1(), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(queryQ1(), 5); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		fmt.Sprintf(`sama_cache_hits_total{cache="align"} %d`+"\n", n),
		fmt.Sprintf(`sama_cache_misses_total{cache="align"} %d`+"\n", n),
		fmt.Sprintf(`sama_cache_entries{cache="align"} %d`+"\n", n),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestIOAttributionConcurrent pins the per-query I/O fix: N identical
// queries running at once must each report exactly the page accesses of
// a solo run, which are the pages its clusters' batched reads visited
// (each align[i]'s batched_pages). An earlier implementation diffed the
// pool's global counters around the query, so concurrent traffic bled
// into every trace.
func TestIOAttributionConcurrent(t *testing.T) {
	// Memo off: every run must actually read pages for the attribution
	// comparison to be non-trivial.
	e := newTestEngine(t, Options{AlignCacheMB: -1})
	// Warm the pool, then measure one solo execution.
	if _, err := e.Query(queryQ1(), 5); err != nil {
		t.Fatal(err)
	}
	_, st, err := e.QueryWithStats(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	solo := st.Trace.IO.PageReads
	if solo == 0 {
		t.Fatal("solo query read no pages")
	}

	const workers = 8
	var wg sync.WaitGroup
	got := make([]obs.IOStats, workers)
	batched := make([]int64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, st, err := e.QueryWithStats(queryQ1(), 5)
			if err != nil {
				errs[w] = err
				return
			}
			got[w] = st.Trace.IO
			for _, ph := range st.Plan().Phases {
				if ph.Name == "cluster" {
					for _, al := range ph.Children {
						batched[w] += al.Attrs["batched_pages"]
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if got[w].PageReads != solo {
			t.Errorf("worker %d attributed %d page reads, want exactly %d (solo)",
				w, got[w].PageReads, solo)
		}
		if int64(got[w].PageReads) != batched[w] {
			t.Errorf("worker %d attributed %d page reads, want its plan's %d batched pages",
				w, got[w].PageReads, batched[w])
		}
		if got[w].PageReads != got[w].CacheHits+got[w].CacheMisses {
			t.Errorf("worker %d: reads %d != hits %d + misses %d",
				w, got[w].PageReads, got[w].CacheHits, got[w].CacheMisses)
		}
	}
}

// TestRetrieveUnindexedConstantFallsThrough pins the dead-end fix: a
// query path whose only constant has no postings used to return zero
// candidates unconditionally; it must now degrade to the fallback scan.
func TestRetrieveUnindexedConstantFallsThrough(t *testing.T) {
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: iri("NoSuchEntity"), P: vr("p"), O: vr("o")})
	e := newTestEngine(t, Options{})
	pre := e.Preprocess(q)
	if len(pre.Paths) != 1 {
		t.Fatalf("decomposed into %d paths, want 1", len(pre.Paths))
	}
	if ids := inView(e, func(r backend) []index.PathID {
		ids, _ := retrieve(r, new(clusterScratch), pre.Paths[0])
		return ids
	}); len(ids) == 0 {
		t.Fatal("retrieve dead-ended on an unindexed constant label")
	}
	answers, err := e.Query(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no approximate answers for an unindexed constant")
	}
}

// TestFallbackScanCoversIDRange pins the stride sampling: a capped
// fallback scan must reach the high end of the PathID space instead of
// re-collecting the first max IDs forever.
func TestFallbackScanCoversIDRange(t *testing.T) {
	e := newTestEngine(t, Options{})
	n := e.idx.NumPaths()
	if n < 8 {
		t.Fatalf("figure-1 index has only %d paths; test needs ≥ 8", n)
	}
	scan := func(r backend) []index.PathID { return fallbackScan(r, 4) }
	ids := inView(e, scan)
	if len(ids) != 4 {
		t.Fatalf("fallback returned %d ids, want 4", len(ids))
	}
	var maxID int
	for _, id := range ids {
		if int(id) > maxID {
			maxID = int(id)
		}
	}
	if maxID < n/2 {
		t.Errorf("fallback sample max ID %d never left the low range (N=%d)", maxID, n)
	}
	// Deterministic for a fixed index state.
	again := inView(e, scan)
	for i := range ids {
		if again[i] != ids[i] {
			t.Fatalf("fallback scan not deterministic: %v vs %v", again, ids)
		}
	}
}

// TestMemoSizeIsFootprint pins the memo's charge to what an entry pins:
// its shell plus each of its four arrays at capacity times element size
// — 64 B per item, 4 per term ID, 8 per binding, 4 per cut ID — for the
// entries a real cluster pass stores, whose item arrays are exactly as
// long as the items need.
func TestMemoSizeIsFootprint(t *testing.T) {
	e := newTestEngine(t, Options{})
	pre := e.Preprocess(queryQ1())
	if _, err := e.Cluster(pre); err != nil {
		t.Fatal(err)
	}
	for qi, q := range pre.Paths {
		v, ok := e.alignMemo.Renew(q.Key(), e.idx.Epoch(), nil)
		if !ok {
			t.Fatalf("query path %d: no memo entry", qi)
		}
		cc := v.(*cachedCluster)
		runs, binds := 0, 0
		for _, it := range cc.items {
			runs, binds = runs+int(it.run.n), binds+int(it.subst.n)
		}
		if len(cc.items) == 0 || len(cc.runs) != runs || len(cc.binds) != binds ||
			cap(cc.items) != len(cc.items) || cap(cc.runs) != runs || cap(cc.binds) != binds {
			t.Fatalf("query path %d: arrays of %d/%d items, %d/%d IDs (want %d), %d/%d bindings (want %d)",
				qi, len(cc.items), cap(cc.items), len(cc.runs), cap(cc.runs), runs, len(cc.binds), cap(cc.binds), binds)
		}
		want := int(unsafe.Sizeof(cachedCluster{})) + 64*len(cc.items) + 4*runs + 8*binds + 4*cap(cc.cut)
		if got := memoSize(cc); got != want || cc.size != want {
			t.Errorf("query path %d: memoSize %d, charged %d; want %d", qi, got, cc.size, want)
		}
	}
}
