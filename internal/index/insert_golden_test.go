package index

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sama/internal/datasets"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
)

var updateInsertGolden = flag.Bool("update", false, "rewrite testdata/insert_stream.golden")

// TestInsertStreamGolden pins the bytes inserts leave: the sha256 of
// .pages and of the metadata (BuildTime and the applied LSN zeroed)
// after each leg's inserts and a checkpoint, of the records alone
// (recordsDigest: the same whatever page a record sits on), and of what
// they say (idsDigest: the same whatever bytes spell it), against
// testdata/insert_stream.golden. The legs are a 2 000-triple LUBM base
// taking 40 batches of 25 unseen triples (and a crash copy of it, which
// Open replays), and a sourceless ring that takes a hub-rooted insert,
// one that gives it a source, and one on the now-sourced graph.
func TestInsertStreamGolden(t *testing.T) {
	var got strings.Builder
	record := func(leg string, ix *Index) {
		t.Helper()
		if err := ix.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		pages, err := os.ReadFile(pagesPath(ix.base))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s pages %x meta %x records %x ids %x\n", leg, sha256.Sum256(pages), sha256.Sum256(metaBytes(t, ix)), recordsDigest(t, ix), idsDigest(t, ix))
	}
	insert := func(ix *Index, ts []rdf.Triple) {
		t.Helper()
		if err := ix.InsertTriples(ts); err != nil {
			t.Fatal(err)
		}
	}

	const baseTriples, batchSize, batches = 2_000, 25, 40
	base := filepath.Join(t.TempDir(), "lubm")
	ix, err := Build(base, datasets.LUBM{}.Generate(baseTriples, 1), Options{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	extra := datasets.LUBM{}.Generate(baseTriples, 2).Triples()
	for i := range batches {
		insert(ix, extra[i*batchSize:(i+1)*batchSize])
	}
	re, err := Open(crashClone(t, base), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	record("lubm", ix)
	record("lubm-replayed", re)

	ring, err := Build(filepath.Join(t.TempDir(), "ring"), ringGraph(30), Options{Paths: paths.Config{MaxLength: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	insert(ring, []rdf.Triple{{S: iri("r2"), P: iri("skip"), O: iri("r17")}})
	record("ring-hub", ring)
	insert(ring, []rdf.Triple{{S: iri("s0"), P: iri("next"), O: iri("r0")}})
	record("ring-sourced", ring)
	insert(ring, []rdf.Triple{{S: iri("r4"), P: iri("skip"), O: iri("t0")}})
	record("ring-after", ring)

	golden := filepath.Join("testdata", "insert_stream.golden")
	if *updateInsertGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("inserts' files differ from %s:\ngot:\n%swant:\n%s", golden, got.String(), want)
	}
}

// recordsDigest is the sha256 of every path's record, in path-ID order
// and each behind its length, followed by the tombstone bitmap: what the
// index stores, independent of the page layout that stores it.
func recordsDigest(t *testing.T, ix *Index) [sha256.Size]byte {
	t.Helper()
	var buf []byte
	for _, rec := range allRecords(t, ix) {
		buf = binary.AppendUvarint(buf, uint64(len(rec)))
		buf = append(buf, rec...)
	}
	return sha256.Sum256(append(buf, tombstoneBitmap(ix)...))
}

// idsDigest is the sha256 of every path's term IDs as a record decodes
// to them — its length, then the nodes' IDs and the edges' — in path-ID
// order, followed by the tombstone bitmap: what the records say,
// independent of how they spell it.
func idsDigest(t *testing.T, ix *Index) [sha256.Size]byte {
	t.Helper()
	var buf []byte
	for id, rec := range allRecords(t, ix) {
		n, err := recordNodes(rec)
		if err != nil {
			t.Fatalf("path %d: %v", id, err)
		}
		ids := make([]uint32, 2*n-1)
		if err := ix.dict.decodeRecord(rec, n, nil, ids); err != nil {
			t.Fatalf("path %d: %v", id, err)
		}
		buf = binary.AppendUvarint(buf, uint64(len(ids)))
		for _, term := range ids {
			buf = binary.AppendUvarint(buf, uint64(term))
		}
	}
	return sha256.Sum256(append(buf, tombstoneBitmap(ix)...))
}

// allRecords reads every path's record, tombstoned included, in path-ID
// order.
func allRecords(t *testing.T, ix *Index) [][]byte {
	t.Helper()
	recs, _, err := ix.store.Read(context.Background(), storeIDs(ix))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// storeIDs is every path ID, tombstoned included, as the record store
// takes it.
func storeIDs(ix *Index) []uint32 {
	ids := make([]uint32, ix.NumPaths())
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// pathPage returns the page holding the record of path id: that of the
// last directory run starting at or before it.
func pathPage(ix *Index, id PathID) storage.PageID {
	dir := ix.store.Directory()
	i, _ := slices.BinarySearchFunc(dir, uint32(id)+1, func(r storage.Run, t uint32) int { return cmp.Compare(r.First, t) })
	return dir[i-1].Page
}

// tombstoneBitmap is the tombstones as the metadata stores them, one
// byte per 8 paths.
func tombstoneBitmap(ix *Index) []byte {
	bitmap := make([]byte, (len(ix.deleted)+7)/8)
	for i, del := range ix.deleted {
		if del {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	return bitmap
}
