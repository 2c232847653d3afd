package index

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
	"sama/internal/textindex"
)

// buildAndClose builds an index at base and closes it, returning the
// meta file path.
func buildAndClose(t *testing.T, base string, opts Options) string {
	t.Helper()
	ix, err := Build(base, figure1Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return metaPath(base)
}

func TestOpenRejectsTruncatedMeta(t *testing.T) {
	base := filepath.Join(t.TempDir(), "trunc")
	meta := buildAndClose(t, base, Options{})
	raw, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 8, 12, len(raw) / 2, len(raw) - 1} {
		if cut >= len(raw) {
			continue
		}
		if err := os.WriteFile(meta, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(base, Options{}); err == nil {
			t.Errorf("meta truncated to %d bytes accepted", cut)
		}
	}
}

func TestOpenRejectsCorruptMagic(t *testing.T) {
	base := filepath.Join(t.TempDir(), "magic")
	meta := buildAndClose(t, base, Options{})
	raw, _ := os.ReadFile(meta)
	raw[0] = 'X'
	os.WriteFile(meta, raw, 0o644)
	if _, err := Open(base, Options{}); err == nil {
		t.Error("corrupt magic accepted")
	}
}

// TestOpenRejectsOlderMetaVersion pins the version check: metadata
// stamped with an earlier format version (SAMAIDX3/4 predate persisted
// signatures, SAMAIDX5 could hold inline-string records, SAMAIDX6 holds
// no data graph, SAMAIDX7 could name a log elsewhere than base.wal,
// SAMAIDX8 holds no path budget, SAMAIDX9 spells its dictionary out
// term by term in ID order, SAMAIDXA's records may span pages, SAMAIDXB
// names each record by its page and slot, SAMAIDXC writes each postings
// list as one delta stream, SAMAIDXD stores each path's signature) is
// refused with an error that names the version found and says what to
// do about it.
func TestOpenRejectsOlderMetaVersion(t *testing.T) {
	base := filepath.Join(t.TempDir(), "old")
	meta := buildAndClose(t, base, Options{})
	raw, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{'3', '4', '5', '6', '7', '8', '9', 'A', 'B', 'C', 'D'} {
		raw[7] = v
		if err := os.WriteFile(meta, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(base, Options{})
		if err == nil {
			t.Fatalf("version %q metadata accepted", v)
		}
		for _, want := range []string{`version '` + string(v) + `'`, "rebuild"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version %q: error %q lacks %q", v, err, want)
			}
		}
	}
}

// TestOpenRejectsBadDirectory: metadata whose record-store directory
// could place a record wrongly is refused — a run not starting at ID 0
// first, runs not ascending in first ID or in page, a first ID past the
// path count, a page past the pages file or its header page, and no
// run for a non-empty index — while a well-formed one of several runs
// decodes; and Open refuses such a file.
func TestOpenRejectsBadDirectory(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir")
	buildAndClose(t, base, Options{})
	ix, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, store := uint32(ix.NumPaths()), ix.store
	const pages = 10 // the pages file the crafted directories are decoded against
	withDir := func(dir []storage.Run) []byte {
		ix.store = storage.NewRecordStore(nil, dir, n)
		defer func() { ix.store = store }()
		return metaBytes(t, ix)
	}
	decode := func(raw []byte) error {
		return new(Index).decodeMeta(bufio.NewReader(bytes.NewReader(raw)), int64(len(raw)), pages)
	}
	if err := decode(withDir([]storage.Run{{Page: 1, First: 0}, {Page: 3, First: 2}, {Page: 9, First: n - 1}})); err != nil {
		t.Fatalf("a well-formed directory of three runs: %v", err)
	}
	bad := map[string][]storage.Run{
		"first-not-at-0":          {{Page: 1, First: 1}},
		"first-ids-repeat":        {{Page: 1, First: 0}, {Page: 2, First: 3}, {Page: 3, First: 3}},
		"pages-descend":           {{Page: 2, First: 0}, {Page: 1, First: 3}},
		"first-id-past-the-paths": {{Page: 1, First: 0}, {Page: 2, First: n}},
		"page-past-the-file":      {{Page: 1, First: 0}, {Page: pages, First: 3}},
		"header-page":             {{Page: 0, First: 0}},
		"no-runs":                 nil,
	}
	for name, dir := range bad {
		if err := decode(withDir(dir)); err == nil {
			t.Errorf("%s: directory %v decoded", name, dir)
		}
	}
	raw := withDir(bad["first-not-at-0"])
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath(base), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if re, err := Open(base, Options{}); err == nil {
		re.Close()
		t.Fatal("Open took a directory whose first run is not at ID 0")
	}
}

// TestOpenRejectsBadGraph: metadata whose graph section repeats a
// node's term, joins an edge to a node past the node count or repeats an
// edge is refused with the message naming the defect, by the decoder
// and by Open.
func TestOpenRejectsBadGraph(t *testing.T) {
	base := filepath.Join(t.TempDir(), "graph")
	buildAndClose(t, base, Options{})
	ix, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	g, pages := ix.graph, ix.file.NumPages()
	n := rdf.NodeID(g.NodeCount())
	cases := []struct {
		name   string
		mutate func(c *idGraph)
		want   string
	}{
		{"repeated-node-term", func(c *idGraph) { c.nodeTerm[1] = c.nodeTerm[0] },
			fmt.Sprintf("graph node 1 (%s) repeats an earlier one", ix.dict.terms[g.nodeTerm[0]])},
		{"endpoint-past-the-nodes", func(c *idGraph) { c.to[2] = n },
			fmt.Sprintf("graph edge 2 joins nodes %d and %d of %d", g.from[2], n, n)},
		{"repeated-edge", func(c *idGraph) { c.from[1], c.to[1], c.label[1] = c.from[0], c.to[0], c.label[0] },
			"graph edge 1 repeats an earlier one"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := *g
			bad.nodeTerm, bad.from, bad.to, bad.label = slices.Clone(g.nodeTerm), slices.Clone(g.from), slices.Clone(g.to), slices.Clone(g.label)
			c.mutate(&bad)
			ix.graph = &bad
			raw := metaBytes(t, ix)
			ix.graph = g
			err := new(Index).decodeMeta(bufio.NewReader(bytes.NewReader(raw)), int64(len(raw)), pages)
			if err == nil || err.Error() != c.want {
				t.Fatalf("decoding: err = %v, want %q", err, c.want)
			}
			copied := crashClone(t, base)
			if err := os.WriteFile(metaPath(copied), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if re, err := Open(copied, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
				if re != nil {
					re.Close()
				}
				t.Fatalf("Open: err = %v, want %q", err, c.want)
			}
		})
	}
}

// TestOpenRejectsBadLabelPostings: the signatures are derived from the
// label postings, so metadata whose postings name a path past the path
// count, or hold no key of some path, is refused with the message naming
// the key or the path, by the decoder and by Open.
func TestOpenRejectsBadLabelPostings(t *testing.T) {
	base := filepath.Join(t.TempDir(), "labels")
	buildAndClose(t, base, Options{})
	ix, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	n, pages := ix.NumPaths(), ix.file.NumPages()
	cases := []struct {
		name   string
		mutate func()
		want   string
	}{
		{"path-past-the-count", func() { ix.labels.Add("stray", uint32(n)) },
			fmt.Sprintf(`label postings: textindex: key "stray" holds document %d of %d`, n, n)},
		{"path-no-key-holds", func() { ix.lens, ix.deleted = append(ix.lens, 1), append(ix.deleted, false) },
			fmt.Sprintf("label postings hold no key of path %d", n)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The case mutates a copy of the label postings, not the index's.
			labels, lens, deleted := ix.labels, ix.lens, ix.deleted
			var buf bytes.Buffer
			if _, err := ix.labels.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if ix.labels, err = textindex.ReadFrom(&buf, nil, int64(buf.Len())); err != nil {
				t.Fatal(err)
			}
			c.mutate()
			raw := metaBytes(t, ix)
			ix.labels, ix.lens, ix.deleted = labels, lens, deleted
			err := new(Index).decodeMeta(bufio.NewReader(bytes.NewReader(raw)), int64(len(raw)), pages)
			if err == nil || err.Error() != c.want {
				t.Fatalf("decoding: err = %v, want %q", err, c.want)
			}
			copied := crashClone(t, base)
			if err := os.WriteFile(metaPath(copied), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if re, err := Open(copied, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
				if re != nil {
					re.Close()
				}
				t.Fatalf("Open: err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestOpenMissingMetaFile(t *testing.T) {
	base := filepath.Join(t.TempDir(), "nometa")
	meta := buildAndClose(t, base, Options{})
	os.Remove(meta)
	if _, err := Open(base, Options{}); err == nil {
		t.Error("missing meta file accepted")
	}
}

func TestOpenMissingPagesFile(t *testing.T) {
	base := filepath.Join(t.TempDir(), "nopages")
	buildAndClose(t, base, Options{})
	os.Remove(pagesPath(base))
	if _, err := Open(base, Options{}); err == nil {
		t.Error("missing pages file accepted")
	}
}

func TestReadDictionaryErrors(t *testing.T) {
	d := NewDictionary()
	d.ID(iri("a"))
	d.ID(rdf.NewLangLiteral("x", "en"))
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Round trip works.
	back, err := ReadDictionary(bufio.NewReader(bytes.NewReader(good)), int64(len(good)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("round trip terms = %d", back.Len())
	}
	if id, ok := back.Lookup(iri("a")); !ok || id != 0 {
		t.Errorf("Lookup(a) = %d, %v", id, ok)
	}
	if _, ok := back.Lookup(iri("zz")); ok {
		t.Error("unknown term found")
	}
	// Truncations fail.
	for _, cut := range []int{0, 2, 5, len(good) - 1} {
		if _, err := ReadDictionary(bufio.NewReader(bytes.NewReader(good[:cut])), int64(cut)); err == nil {
			t.Errorf("truncated dictionary (%d bytes) accepted", cut)
		}
	}
	// Wrong magic fails.
	bad := append([]byte("XXXX"), good[4:]...)
	if _, err := ReadDictionary(bufio.NewReader(bytes.NewReader(bad)), int64(len(bad))); err == nil {
		t.Error("bad dictionary magic accepted")
	}
}

// TestReadDictionaryRejectsEntries feeds ReadDictionary hand-made
// sections that WriteTo never writes: each must fail with an error that
// names the entry at fault (or, for the count, the count).
func TestReadDictionaryRejectsEntries(t *testing.T) {
	// entry spells one IRI entry: shared < 0 starts a block (no shared
	// prefix length); id is spelled as given, so a test can overlong it.
	entry := func(shared int, rest string, id ...byte) []byte {
		b := []byte{byte(rdf.IRI)}
		if shared >= 0 {
			b = binary.AppendUvarint(b, uint64(shared))
		}
		return append(appendString(b, rest), id...)
	}
	section := func(count uint64, entries ...[]byte) []byte {
		return slices.Concat(append([][]byte{dictMagic[:], binary.AppendUvarint(nil, count)}, entries...)...)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want []string
	}{
		{"keys descending", section(2, entry(-1, "b", 0), entry(0, "a", 1)), []string{"entry 1", "not above"}},
		{"key repeated", section(2, entry(-1, "b", 0), entry(1, "", 1)), []string{"entry 1", "not above"}},
		{"ID repeated", section(2, entry(-1, "a", 0), entry(0, "b", 0)), []string{"entry 1", "repeated or out of range"}},
		{"ID out of range", section(2, entry(-1, "a", 2), entry(0, "b", 0)), []string{"entry 0", "repeated or out of range"}},
		{"ID overlong", section(1, entry(-1, "a", 0x80, 0)), []string{"entry 0", "overlong"}},
		{"shared prefix too long", section(2, entry(-1, "a", 0), entry(2, "b", 1)), []string{"entry 1", "longer than the previous value"}},
		{"shared prefix not the longest", section(2, entry(-1, "ab", 0), entry(0, "ac", 1)), []string{"entry 1", "not the longest"}},
		{"count beyond the file", section(1000, entry(-1, "a", 0)), []string{"implausible dictionary entry count 1000"}},
		{"length beyond the file", section(1, entry(-1, "a", 0)[:1], binary.AppendUvarint(nil, 1000)), []string{"entry 0", "length 1000 beyond"}},
		{"entries cut short", section(2, entry(-1, "a", 0)), []string{"entry 1"}},
	} {
		_, err := ReadDictionary(bufio.NewReader(bytes.NewReader(tc.data)), int64(len(tc.data)))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q lacks %q", tc.name, err, want)
			}
		}
	}
}

// TestDictionarySectionIsSorted checks the section's order against the
// IDs the terms were interned under. Interning the same terms in two
// orders gives the same key sequence in WriteTo's output, each key with
// its own ID; and a dictionary written at a checkpoint, grown, and
// written again — a failed insert rolled back in between — writes the
// bytes of one that interned everything at once.
func TestDictionarySectionIsSorted(t *testing.T) {
	var terms []rdf.Term
	for i := range 40 {
		terms = append(terms, iri(fmt.Sprintf("http://ex.org/p%d", i*7%40)), rdf.NewLangLiteral(fmt.Sprintf("v%d", i%9), "en"))
	}
	terms = append(terms, rdf.NewLiteral("v1"), rdf.NewTypedLiteral("v1", "int"), rdf.NewLangLiteral("v1", "de"), rdf.NewBlank("b"))
	write := func(d *Dictionary) []byte {
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	keys := func(d *Dictionary) []rdf.Term {
		section := write(d)
		back, err := ReadDictionary(bufio.NewReader(bytes.NewReader(section)), int64(len(section)))
		if err != nil {
			t.Fatal(err)
		}
		var ks []rdf.Term
		for _, id := range back.order {
			ks = append(ks, back.terms[id])
			if want, _ := d.Lookup(back.terms[id]); want != id {
				t.Errorf("%s: section ID %d, interned as %d", back.terms[id], id, want)
			}
		}
		return ks
	}
	forward, backward := NewDictionary(), NewDictionary()
	for i := range terms {
		forward.ID(terms[i])
		backward.ID(terms[len(terms)-1-i])
	}
	fk, bk := keys(forward), keys(backward)
	if !slices.Equal(fk, bk) {
		t.Fatalf("key sequences differ:\n%v\n%v", fk, bk)
	}
	if !slices.IsSortedFunc(fk, compareTerms) || len(fk) != forward.Len() {
		t.Fatalf("section keys not sorted or not all there: %v", fk)
	}

	grown := NewDictionary()
	half := len(terms) / 2
	for _, term := range terms[:half] {
		grown.ID(term)
	}
	grown.ID(iri("rolled-back"))
	write(grown)
	grown.truncate(grown.Len() - 1)
	for _, term := range terms[half:] {
		grown.ID(term)
	}
	if !bytes.Equal(write(grown), write(forward)) {
		t.Error("a dictionary written twice differs from one written once")
	}
}

func TestTombstoneBitmapPersistence(t *testing.T) {
	base := filepath.Join(t.TempDir(), "tomb")
	g := figure1Graph()
	ix, err := Build(base, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Tombstone by inserting: Carla gets a path to a new sink, and an
	// out-edge on that sink then extends the path.
	for _, tr := range []rdf.Triple{
		{S: iri("CarlaBunes"), P: iri("sponsor"), O: iri("A9999")},
		{S: iri("A9999"), P: iri("aTo"), O: iri("B0532")},
	} {
		if err := ix.InsertTriples([]rdf.Triple{tr}); err != nil {
			t.Fatal(err)
		}
	}
	var dead []PathID
	for id := 0; id < ix.NumPaths(); id++ {
		if !ix.Live(PathID(id)) {
			dead = append(dead, PathID(id))
		}
	}
	if len(dead) == 0 {
		t.Fatal("no tombstones created")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	for _, id := range dead {
		if back.Live(id) {
			t.Errorf("tombstone %d lost across reopen", id)
		}
		if _, err := pathByID(back, id); err == nil {
			t.Errorf("tombstoned path %d readable", id)
		}
	}
}

// TestPathBudgetFitsOneRecord: a path of MaxPathLength nodes whose every
// term ID takes five varint bytes (2³²−1) makes a record one store slot
// holds, and one node more would not; Build refuses a budget of 0 or
// MaxPathLength+1 nodes, or a negative MaxPerRoot, before it touches the
// index at its base, which Open still takes; and decodeMeta refuses such
// a recorded budget.
func TestPathBudgetFitsOneRecord(t *testing.T) {
	worst := func(n int) []byte {
		ids := make([]uint32, 2*n-1)
		for i := range ids {
			ids[i] = math.MaxUint32
		}
		return appendRecord(nil, ids)
	}
	if rec := worst(MaxPathLength + 1); len(rec) <= storage.MaxRecord {
		t.Errorf("a worst-case path of %d nodes takes %d bytes, within the %d of a slot: MaxPathLength is not the largest budget",
			MaxPathLength+1, len(rec), storage.MaxRecord)
	}
	rec := worst(MaxPathLength)
	pf, err := storage.CreatePageFile(filepath.Join(t.TempDir(), "worst.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	rs := storage.NewRecordStore(storage.NewBufferPool(pf, 4), nil, 0)
	rid, err := rs.Append(rec)
	if err != nil {
		t.Fatalf("a worst-case path of %d nodes (%d bytes): %v", MaxPathLength, len(rec), err)
	}
	if got, _, err := rs.Read(context.Background(), []uint32{rid}); err != nil || !bytes.Equal(got[0], rec) {
		t.Fatalf("the worst-case record did not read back: %v", err)
	}

	base := filepath.Join(t.TempDir(), "ix")
	buildAndClose(t, base, Options{})
	bad := []paths.Config{{MaxLength: 0, MaxPerRoot: 4096}, {MaxLength: MaxPathLength + 1}, {MaxLength: 12, MaxPerRoot: -1}}
	for _, c := range bad {
		if ix, err := Build(base, figure1Graph(), Options{Paths: c}); err == nil {
			ix.Close()
			t.Fatalf("Build took the budget %+v", c)
		}
	}
	ix, err := Open(base, Options{})
	if err != nil {
		t.Fatalf("Open after the refused builds: %v", err)
	}
	defer ix.Close()
	budget := ix.opts.Paths
	defer func() { ix.opts.Paths = budget }()
	for _, c := range bad {
		ix.opts.Paths = c
		raw := metaBytes(t, ix)
		if err := new(Index).decodeMeta(bufio.NewReader(bytes.NewReader(raw)), int64(len(raw)), ix.file.NumPages()); err == nil {
			t.Errorf("metadata recording the budget %+v decoded", c)
		}
	}
}
