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
// (recordsDigest: the same whatever page a record sits on), of what
// they say (idsDigest: the same whatever bytes spell it), and of the
// terms they name (termsDigest: the same whatever IDs the dictionary
// gives them), against testdata/insert_stream.golden. The legs are a 2 000-triple LUBM base
// taking 40 batches of 25 unseen triples (and a crash copy of it, which
// Open replays), a sourceless ring that takes a hub-rooted insert,
// one that gives it a source, and one on the now-sourced graph, and a
// small graph whose batches add terms no path holds (and a crash copy of
// it, and the compaction of it).
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
		fmt.Fprintf(&got, "%s pages %x meta %x records %x ids %x terms %x\n", leg, sha256.Sum256(pages), sha256.Sum256(metaBytes(t, ix)),
			recordsDigest(t, ix), idsDigest(t, ix), termsDigest(t, ix))
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

	// Terms no path holds: under a three-node budget n3 lies beyond every
	// root, u1 and u2 form a cycle no source reaches, and batches add
	// more of both, reuse node terms as predicates and a pending predicate
	// as a node, repeat triples within and across batches, and at last
	// reach the pending cycle from a root, all with no checkpoint between
	// them.
	chain := rdf.NewGraph()
	for _, tr := range [][3]string{{"r0", "a", "n1"}, {"n1", "b", "n2"}, {"n2", "c", "n3"}, {"r1", "a", "n1"}, {"u1", "loop", "u2"}, {"u2", "loop", "u1"}} {
		chain.AddTriple(rdf.Triple{S: iri(tr[0]), P: iri(tr[1]), O: iri(tr[2])})
	}
	pendBase := filepath.Join(t.TempDir(), "pending")
	pend, err := Build(pendBase, chain, Options{Paths: paths.Config{MaxLength: 3}, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pend.Close()
	for _, batch := range [][][3]string{
		{{"n3", "far", "x1"}, {"v1", "only", "v2"}, {"v2", "only", "v1"}, {"v1", "only", "v2"}, {"r0", "n2", "x2"}, {"u2", "u1", "x6"}},
		{{"n3", "far", "x1"}, {"r0", "v1", "x3"}, {"only", "a", "x4"}, {"x1", "far", "x5"}},
		{{"r1", "reach", "v1"}, {"v2", "far", "x7"}, {"r0", "n2", "x2"}},
	} {
		var ts []rdf.Triple
		for _, tr := range batch {
			ts = append(ts, rdf.Triple{S: iri(tr[0]), P: iri(tr[1]), O: iri(tr[2])})
		}
		insert(pend, ts)
	}
	pendRe, err := Open(crashClone(t, pendBase), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pendRe.Close()
	record("pending", pend)
	record("pending-replayed", pendRe)
	if _, err := pend.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	record("pending-compacted", pend)

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
	return decodedDigest(t, ix, func(buf []byte, ids []uint32) []byte {
		for _, term := range ids {
			buf = binary.AppendUvarint(buf, uint64(term))
		}
		return buf
	})
}

// termsDigest is the sha256 of every path's terms — its length, then the
// nodes' terms and the edges', each its kind and its value, datatype and
// language behind their lengths — in path-ID order, followed by the
// tombstone bitmap: what the paths are, independent of the IDs the
// dictionary gives their terms.
func termsDigest(t *testing.T, ix *Index) [sha256.Size]byte {
	t.Helper()
	return decodedDigest(t, ix, func(buf []byte, ids []uint32) []byte {
		for _, id := range ids {
			term := ix.dict.terms[id]
			buf = append(buf, byte(term.Kind))
			for _, s := range []string{term.Value, term.Datatype, term.Lang} {
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
		}
		return buf
	})
}

// decodedDigest is the sha256 of every path's decoded term IDs, in
// path-ID order, each path its ID count followed by what add appends of
// its IDs, then the tombstone bitmap.
func decodedDigest(t *testing.T, ix *Index, add func(buf []byte, ids []uint32) []byte) [sha256.Size]byte {
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
		buf = add(binary.AppendUvarint(buf, uint64(len(ids))), ids)
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
