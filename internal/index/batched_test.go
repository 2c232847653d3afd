package index

import (
	"context"
	"errors"
	"testing"

	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/storage"
)

// TestReadPathsBatchedMatchesPath reads every path back and compares it
// with the path Build indexed under that ID: the enumeration, in order.
func TestReadPathsBatchedMatchesPath(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	want := paths.Enumerate(figure1Graph(), paths.DefaultConfig)
	if len(want) != ix.NumPaths() {
		t.Fatalf("%d paths indexed, %d enumerated", ix.NumPaths(), len(want))
	}
	ids := make([]PathID, 0, ix.NumPaths())
	// Reverse order, so positional results must survive the page sort.
	for id := ix.NumPaths() - 1; id >= 0; id-- {
		ids = append(ids, PathID(id))
	}
	got, err := ix.ReadPathsBatched(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if got[i].Key() != want[id].Key() {
			t.Errorf("path %d mismatch:\n got %v\nwant %v", id, got[i], want[id])
		}
	}
}

func TestReadPathsBatchedRejectsStaleIDs(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	if _, err := ix.ReadPathsBatched(context.Background(), []PathID{PathID(ix.NumPaths())}); err == nil {
		t.Error("out-of-range ID accepted")
	}
	ix.deleted[0] = true
	if _, err := ix.ReadPathsBatched(context.Background(), []PathID{0}); err == nil {
		t.Error("tombstoned ID accepted")
	}
}

func TestReadPathsBatchedCancelled(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ids := []PathID{0, 1, 2}
	got, err := ix.ReadPathsBatched(ctx, ids)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, p := range got {
		if len(p.Nodes) != 0 {
			t.Errorf("path %d materialised despite cancelled context", i)
		}
	}
}

func TestReadPathsBatchedChargesTally(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	reg := obs.NewRegistry()
	ix.SetMetrics(reg)
	ids := make([]PathID, ix.NumPaths())
	for i := range ids {
		ids[i] = PathID(i)
	}
	var tally storage.IOTally
	ctx := storage.WithTally(context.Background(), &tally)
	var pages int
	if err := ix.View(func(r Reader) (err error) {
		_, pages, err = r.ReadPathsBatched(ctx, ids)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if pages == 0 || tally.Hits()+tally.Misses() != uint64(pages) {
		t.Errorf("batched read visited %d pages and charged %d page accesses to the context tally; want as many, > 0",
			pages, tally.Hits()+tally.Misses())
	}
	// Each decoded path is counted once.
	if n := reg.Counter("sama_index_path_reads_total", "").Value(); n != uint64(len(ids)) {
		t.Errorf("sama_index_path_reads_total = %d, want %d", n, len(ids))
	}
}

// TestDecodePathAllocations pins what a cluster miss pays per path: the
// record decoder makes one allocation (the term slice; the strings are
// the dictionary's), and ReadPathsBatched adds only that, per path, to
// what the record store's batched read allocates — plus the result and
// RID slices, once per call.
func TestDecodePathAllocations(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	ids := make([]PathID, ix.NumPaths())
	for i := range ids {
		ids[i] = PathID(i)
	}
	ctx := context.Background()
	recs, _, err := ix.store.Read(ctx, ix.rids)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		rid := ix.rids[i]
		if n := testing.AllocsPerRun(100, func() {
			if _, err := DecodePathDict(rec, ix.dict); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("DecodePathDict: %v allocations for the record at %v, want at most 1", n, rid)
		}
	}
	read := testing.AllocsPerRun(100, func() {
		if _, _, err := ix.store.Read(ctx, ix.rids); err != nil {
			t.Fatal(err)
		}
	})
	batched := testing.AllocsPerRun(100, func() {
		if _, err := ix.ReadPathsBatched(ctx, ids); err != nil {
			t.Fatal(err)
		}
	})
	if most := read + float64(len(ids)) + 2; batched > most {
		t.Errorf("ReadPathsBatched: %v allocations for %d paths, want at most %v (the batched read's %v, one per path, two per call)",
			batched, len(ids), most, read)
	}
}
