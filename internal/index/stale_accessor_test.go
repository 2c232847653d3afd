package index

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"sama/internal/rdf"
)

// TestAccessorsSurviveShrunkIDSpace pins the accessor contract for IDs
// captured before a compaction shrank the ID space: Live degrades to
// false instead of panicking, while Summaries rejects the batch with an
// error.
func TestAccessorsSurviveShrunkIDSpace(t *testing.T) {
	ix := buildTestIndex(t, Options{})

	// An out-edge on the sink the first insert gave CarlaBunes extends
	// her path to it, which tombstones the old one.
	for _, tr := range []rdf.Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A9999")},
		{S: iri("A9999"), P: iri("aTo"), O: iri("B0532")},
	} {
		if err := ix.InsertTriples([]rdf.Triple{tr}); err != nil {
			t.Fatal(err)
		}
	}
	before := ix.NumPaths()

	// A tombstoned in-range ID already fails Summaries before compaction.
	dead, found := PathID(0), false
	for id := 0; id < before; id++ {
		if !ix.Live(PathID(id)) {
			dead, found = PathID(id), true
			break
		}
	}
	if !found {
		t.Fatal("re-enumeration left no tombstoned path")
	}
	if _, err := ix.Summaries([]PathID{dead}); err == nil {
		t.Fatal("Summaries(tombstoned) accepted a tombstoned ID")
	}

	if _, err := ix.CompactIncremental(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	after := ix.NumPaths()
	if after >= before {
		t.Fatalf("compaction did not shrink the ID space: %d -> %d", before, after)
	}

	stale := PathID(before - 1) // out of range in the compacted space
	if int(stale) < after {
		t.Fatalf("test setup: %d still in range (%d paths)", stale, after)
	}
	if ix.Live(stale) {
		t.Error("Live(stale) = true, want false")
	}
	if _, err := ix.Summaries([]PathID{0, stale}); err == nil {
		t.Fatal("Summaries(out of range) accepted an out-of-range ID")
	}

	// Fresh IDs still answer, and the signature table survived the
	// compaction swap in lockstep with the length table.
	sums, err := ix.Summaries([]PathID{0})
	if err != nil {
		t.Fatalf("Summaries(live) err = %v", err)
	}
	p, err := pathByID(ix, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int(sums[0].Len) != p.Length() {
		t.Errorf("summary Len %d != path length %d", sums[0].Len, p.Length())
	}
	if sums[0].Sig == 0 {
		t.Error("summary signature is zero for a labelled path")
	}
}

// TestSummariesRaceCompaction hammers the summary batch with
// pre-captured (increasingly stale) IDs while one-path incremental
// compactions and re-enumerating inserts churn the ID
// space. Every call must either answer or reject the batch — no panic,
// no torn read. Run under -race (make check does) this also pins the
// lock discipline of Summaries against the compaction swap.
func TestSummariesRaceCompaction(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	if err := ix.InsertTriples([]rdf.Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A9000")},
	}); err != nil {
		t.Fatal(err)
	}
	captured := make([]PathID, ix.NumPaths())
	for i := range captured {
		captured[i] = PathID(i)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if sums, err := ix.Summaries(captured); err == nil && len(sums) != len(captured) {
					t.Errorf("Summaries answered %d of %d IDs", len(sums), len(captured))
					return
				}
			}
		}()
	}

	for i := 0; i < 6; i++ {
		// Each insert gives the sink of Carla's newest path an out-edge,
		// so the path is re-indexed under a new ID and the old one
		// tombstoned.
		if err := ix.InsertTriples([]rdf.Triple{
			{S: iri("A900" + strconv.Itoa(i)), P: iri("aTo"), O: iri("A900" + strconv.Itoa(i+1))},
		}); err != nil {
			t.Errorf("insert: %v", err)
			break
		}
		if _, err := ix.CompactIncremental(context.Background(), 1); err != nil {
			t.Errorf("compaction %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
