package index

import (
	"context"
	"errors"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"sama/internal/datasets"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
	"sama/internal/textindex"
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
	if err := ix.DropCache(); err != nil {
		t.Fatal(err)
	}
	base := ix.PoolStats()
	var n storage.Reads
	if err := ix.View(func(r Reader) (err error) {
		_, n, err = r.ReadPathsBatched(context.Background(), ids)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	st := ix.PoolStats()
	want := storage.Reads{Pages: int(st.Hits + st.Misses - base.Hits - base.Misses), Misses: int(st.Misses - base.Misses)}
	if n != want || n.Misses == 0 {
		t.Errorf("cold batched read returned %+v; want the pool's %+v, with misses", n, want)
	}
	// Each decoded path is counted once.
	if n := reg.Counter("sama_index_path_reads_total", "").Value(); n != uint64(len(ids)) {
		t.Errorf("sama_index_path_reads_total = %d, want %d", n, len(ids))
	}
}

// TestDecodePathAllocations pins what a cluster miss pays to decode:
// the record decoder makes one allocation (the term slice; the strings
// are the dictionary's), and ReadPathsBatched adds five per call to what
// the record store's batched read allocates, whatever the number of
// paths — the store's ID slice, the paths, the runs, and the one term
// slice and one ID slice every path's are cut from.
func TestDecodePathAllocations(t *testing.T) {
	ix := buildTestIndex(t, Options{})
	ids := make([]PathID, ix.NumPaths())
	for i := range ids {
		ids[i] = PathID(i)
	}
	ctx := context.Background()
	recs := allRecords(t, ix)
	for i, rec := range recs {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := DecodePathDict(rec, ix.dict); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("DecodePathDict: %v allocations for the record of path %d, want at most 1", n, i)
		}
	}
	read := testing.AllocsPerRun(100, func() {
		if _, _, err := ix.store.Read(ctx, storeIDs(ix)); err != nil {
			t.Fatal(err)
		}
	})
	batched := testing.AllocsPerRun(100, func() {
		if _, err := ix.ReadPathsBatched(ctx, ids); err != nil {
			t.Fatal(err)
		}
	})
	if most := read + 5; batched > most {
		t.Errorf("ReadPathsBatched: %v allocations for %d paths, want at most %v (the batched read's %v, five per call)",
			batched, len(ids), most, read)
	}
}

// BenchmarkRecordRead times the index's one read from page to record on
// the benchmark's 50 k-triple LUBM base (BenchmarkBuild's): per op, one
// records call of 1 024 random live path IDs, ascending — the read a
// cluster makes when its memo entry is cold. Its pages stay in the pool,
// as the whole page file fits it. It reports ns/record and the pages a
// read visits (pages/op).
func BenchmarkRecordRead(b *testing.B) {
	ts := datasets.LUBM{}.Generate(55000, 1).Triples()[:50000]
	g, err := rdf.NewGraphFromTriples(ts)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(filepath.Join(b.TempDir(), "bench"), g, Options{Thesaurus: textindex.BenchmarkThesaurus()})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	const perRead, reads = 1024, 64
	rng := rand.New(rand.NewPCG(1, 2))
	batches := make([][]PathID, reads)
	for i := range batches {
		for _, j := range rng.Perm(ix.NumPaths())[:perRead] {
			batches[i] = append(batches[i], PathID(j))
		}
		slices.Sort(batches[i])
	}
	ctx := context.Background()
	pages := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		_, n, err := ix.records(ctx, batches[i%reads])
		if err != nil {
			b.Fatal(err)
		}
		pages += n.Pages
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perRead), "ns/record")
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}
