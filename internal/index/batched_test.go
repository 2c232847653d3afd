package index

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sama/internal/obs"
	"sama/internal/storage"
)

func TestReadPathsBatchedMatchesPath(t *testing.T) {
	ix := buildTestIndex(t, Options{})
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
		want, err := ix.Path(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("path %d mismatch:\n got %v\nwant %v", id, got[i], want)
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
	if _, err := ix.ReadPathsBatched(ctx, ids); err != nil {
		t.Fatal(err)
	}
	if tally.Hits()+tally.Misses() == 0 || tally.BatchedPages() == 0 {
		t.Errorf("batched read charged %d page accesses and %d batched pages to the context tally; want both > 0",
			tally.Hits()+tally.Misses(), tally.BatchedPages())
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
	for _, rid := range ix.rids {
		rec, err := ix.store.Read(rid)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := DecodePathDict(rec, ix.dict); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("DecodePathDict: %v allocations for the record at %v, want at most 1", n, rid)
		}
	}
	read := testing.AllocsPerRun(100, func() {
		if _, _, err := ix.store.ReadBatchTally(ctx, nil, ix.rids); err != nil {
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
