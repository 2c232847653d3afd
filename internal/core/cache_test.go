package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sama/internal/obs"
	"sama/internal/rdf"
)

// hcQuery asks for everything filed under Health Care — a single query
// path whose cluster grows by one for every inserted (x, subject, HC)
// triple, which the epoch tests below exploit.
func hcQuery() *rdf.QueryGraph {
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("x"), P: iri("subject"), O: lit("Health Care")})
	return q
}

func TestAnswerCacheHit(t *testing.T) {
	e := newTestEngine(t, Options{AnswerCacheEntries: 8})
	first, st1, err := e.QueryWithStats(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	if st1.Extracted != 24 {
		t.Fatalf("first execution Extracted = %d, want 24", st1.Extracted)
	}
	second, st2, err := e.QueryWithStats(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("identical repeat not served from cache")
	}
	// A hit runs no retrieval or search; QueryPaths carries over.
	if st2.Extracted != 0 || st2.QueryPaths != st1.QueryPaths {
		t.Errorf("hit stats = extracted %d paths %d, want 0 and %d",
			st2.Extracted, st2.QueryPaths, st1.QueryPaths)
	}
	if len(second) != len(first) {
		t.Fatalf("hit returned %d answers, want %d", len(second), len(first))
	}
	for i := range first {
		if second[i].Score != first[i].Score {
			t.Errorf("answer %d score %v != original %v", i, second[i].Score, first[i].Score)
		}
	}
	// The hit's trace is a fresh single-phase tree, not the original's.
	tr := st2.Trace
	if tr == st1.Trace {
		t.Error("cache hit shares the original trace")
	}
	if len(tr.Phases) != 1 || tr.Phases[0].Name != "cache" {
		t.Errorf("hit trace phases = %v, want [cache]", tr.Phases)
	}
	cs := e.CacheStats()[cacheAnswer]
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 1 miss, 1 entry", cs)
	}
	// Different k is a different result set, not a hit.
	if _, st3, _ := e.QueryWithStats(queryQ1(), 3); st3.CacheHit {
		t.Error("k=3 served the k=5 entry")
	}
}

func TestAnswerCacheEpochInvalidation(t *testing.T) {
	e := newTestEngine(t, Options{AnswerCacheEntries: 8})
	before, st, err := e.QueryWithStats(hcQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("cold query hit")
	}
	if _, st2, _ := e.QueryWithStats(hcQuery(), 0); !st2.CacheHit {
		t.Fatal("warm repeat missed")
	}

	// A write must orphan the entry: the post-insert result has to
	// include the new path, never the cached pre-insert set.
	err = e.idx.InsertTriples([]rdf.Triple{
		{S: iri("B9999"), P: iri("subject"), O: lit("Health Care")},
	})
	if err != nil {
		t.Fatal(err)
	}
	after, st3, err := e.QueryWithStats(hcQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHit {
		t.Fatal("stale answers served after an insert")
	}
	if len(after) <= len(before) {
		t.Errorf("post-insert answers = %d, want > %d (new path visible)", len(after), len(before))
	}
	if inv := e.CacheStats()[cacheAnswer].Invalidations; inv != 1 {
		t.Errorf("invalidations = %d, want 1", inv)
	}

	// Compaction renumbers PathIDs; its epoch bump must orphan the
	// re-cached entry the same way.
	if _, st4, _ := e.QueryWithStats(hcQuery(), 0); !st4.CacheHit {
		t.Fatal("repeat after insert missed the re-cache")
	}
	if err := e.idx.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, st5, _ := e.QueryWithStats(hcQuery(), 0); st5.CacheHit {
		t.Error("stale answers served after compaction")
	}
}

func TestAnswerCachePartialNotCached(t *testing.T) {
	e := newTestEngine(t, Options{AnswerCacheEntries: 8})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	_, st, err := e.QueryWithStatsContext(ctx, queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Partial {
		t.Fatal("expired context did not truncate")
	}
	if n := e.CacheStats()[cacheAnswer].Entries; n != 0 {
		t.Errorf("partial result cached: %d entries", n)
	}
}

// TestAnswerCacheConcurrentInserts hammers the cache-enabled engine with
// readers while a writer inserts Health-Care paths, under -race. The
// epoch contract under test: once a reader has observed n inserts
// completed, no later query may return an answer set predating them —
// a stale cache hit would surface fewer answers than the floor.
func TestAnswerCacheConcurrentInserts(t *testing.T) {
	e := newTestEngine(t, Options{AnswerCacheEntries: 32})
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
				// fresh (or validly cached) result has at least this many
				// answers. Fewer means a pre-insert entry escaped the
				// epoch check.
				if want := len(base) + int(floor); len(answers) < want {
					t.Errorf("answers = %d after %d inserts, want ≥ %d (stale cache entry served)",
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

func TestAlignMemoReuse(t *testing.T) {
	e := newTestEngine(t, Options{AlignCacheMB: 4})
	first, err := e.Query(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cs := e.CacheStats()[cacheAlign]
	if cs.Entries == 0 || cs.Misses == 0 {
		t.Fatalf("memo not populated: %+v", cs)
	}
	second, err := e.Query(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cs = e.CacheStats()[cacheAlign]
	if cs.Hits == 0 {
		t.Errorf("repeat query aligned from scratch: %+v", cs)
	}
	for i := range first {
		if second[i].Score != first[i].Score {
			t.Fatalf("memoised answer %d score %v != %v", i, second[i].Score, first[i].Score)
		}
	}
}

func TestCacheMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t, Options{AnswerCacheEntries: 8, AlignCacheMB: 4, Metrics: reg})
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
		`sama_cache_hits_total{cache="answer"} 1`,
		`sama_cache_misses_total{cache="answer"} 1`,
		`sama_cache_entries{cache="answer"} 1`,
		`sama_cache_hits_total{cache="align"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestIOAttributionConcurrent pins the per-query I/O fix: N identical
// queries running at once must each report exactly the page accesses of
// a solo run. The pre-fix implementation diffed the pool's global
// counters around the query, so concurrent traffic bled into every
// trace.
func TestIOAttributionConcurrent(t *testing.T) {
	// Memo off: every run must actually read pages for the attribution
	// comparison to be non-trivial.
	e := newTestEngine(t, Options{AlignCacheMB: -1})
	// Warm the pool, then measure one solo execution.
	if _, err := e.Query(queryQ1(), 5); err != nil {
		t.Fatal(err)
	}
	// Cluster builds materialise candidates through ReadPathsBatched, so
	// this test also pins the batched path's tally attribution.
	if bs := e.idx.BatchedReads(); bs.Reads == 0 || bs.Paths == 0 || bs.Pages == 0 {
		t.Fatalf("warm-up query did not exercise batched reads: %+v", bs)
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
	if ids := e.retrieve(new(clusterScratch), pre.Paths[0]); len(ids) == 0 {
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
	ids := e.fallbackScan(4)
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
	again := e.fallbackScan(4)
	for i := range ids {
		if again[i] != ids[i] {
			t.Fatalf("fallback scan not deterministic: %v vs %v", again, ids)
		}
	}
}
