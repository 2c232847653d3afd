package index

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sama/internal/rdf"
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
// no data graph, SAMAIDX7 could name a log elsewhere than base.wal) is
// refused with an error that names the version found and says what to
// do about it.
func TestOpenRejectsOlderMetaVersion(t *testing.T) {
	base := filepath.Join(t.TempDir(), "old")
	meta := buildAndClose(t, base, Options{})
	raw, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{'3', '4', '5', '6', '7'} {
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
	if _, err := back.Term(99); err == nil {
		t.Error("out-of-range Term accepted")
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
