package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"sama/internal/paths"
	"sama/internal/rdf"
)

// FuzzDecodePath feeds arbitrary bytes to the inline-string path
// decoder: it must never panic, and any path it accepts must survive a
// re-encode (compared as paths — varints have non-canonical spellings,
// so the bytes may differ). The seed corpus under
// testdata/fuzz/FuzzDecodePath is EncodePath of every source-to-sink
// path of the Figure 1 graph.
func FuzzDecodePath(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := DecodePath(buf)
		if err != nil {
			return
		}
		back, err := DecodePath(EncodePath(p))
		if err != nil {
			t.Fatalf("re-encoded path does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the path:\n got %v\nwant %v", back, p)
		}
	})
}

// FuzzDecodePathDict feeds arbitrary bytes to the record decoder every
// stored path goes through, against the dictionary of the Figure 1
// graph (whose seven paths, encoded, are the seed corpus). It must
// never panic; whether it accepts or rejects, it must not allocate more
// than the one term slice a record of that many bytes can fill (give or
// take a fixed slack); and a record it accepts must spell only IDs the
// dictionary holds — read here as uint64, so an ID that only fits after
// narrowing is caught — and survive a re-encode.
func FuzzDecodePathDict(f *testing.F) {
	d := NewDictionary()
	for _, p := range paths.Enumerate(figure1Graph(), paths.DefaultConfig) {
		f.Add(EncodePathDict(p, d))
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := DecodePathDict(buf, d)
		runtime.ReadMemStats(&after)
		// TotalAlloc is process-wide and the fuzz worker's own goroutines
		// allocate too, hence the slack; a node count taken on trust sizes
		// tens of megabytes.
		if got, most := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+len(buf)*int(unsafe.Sizeof(rdf.Term{}))); got > most {
			t.Fatalf("decoding %d bytes allocated %d (at most %d)", len(buf), got, most)
		}
		if err != nil {
			return
		}
		n, pos := binary.Uvarint(buf)
		terms := append(append([]rdf.Term(nil), p.Nodes...), p.Edges...)
		if uint64(len(p.Nodes)) != n || uint64(len(terms)) != 2*n-1 {
			t.Fatalf("record says %d nodes, decoded %d nodes and %d edges", n, len(p.Nodes), len(p.Edges))
		}
		for i, term := range terms {
			id, w := binary.Uvarint(buf[pos:])
			pos += w
			if id >= uint64(d.Len()) || d.terms[id] != term {
				t.Fatalf("term %d: record spells ID %d, decoded %v (dictionary holds %d terms)", i, id, term, d.Len())
			}
		}
		back, err := DecodePathDict(EncodePathDict(p, d), d)
		if err != nil {
			t.Fatalf("re-encoded path does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the path:\n got %v\nwant %v", back, p)
		}
	})
}

// FuzzReadDictionary feeds arbitrary bytes to the dictionary reader: it
// must never panic, a dictionary it accepts must hold as many terms as
// its header says, and the section it accepts must be the one WriteTo
// writes for that dictionary, byte for byte. The seed is the Figure 1
// dictionary with a language-tagged and a typed literal: more than one
// block of front-coded entries. The older seeds are SDC1 sections,
// which must fail on the magic.
func FuzzReadDictionary(f *testing.F) {
	d := NewDictionary()
	for _, p := range paths.Enumerate(figure1Graph(), paths.DefaultConfig) {
		EncodePathDict(p, d)
	}
	d.ID(rdf.NewLangLiteral("ciao", "it"))
	d.ID(rdf.NewTypedLiteral("5", "int"))
	if d.Len() <= dictBlock {
		f.Fatalf("seed dictionary has %d terms, no block boundary", d.Len())
	}
	var seed bytes.Buffer
	if _, err := d.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		d, err := ReadDictionary(r, int64(len(data)))
		if err != nil {
			return
		}
		if count, _ := binary.Uvarint(data[len(dictMagic):]); uint64(d.Len()) != count {
			t.Fatalf("header says %d terms, dictionary holds %d", count, d.Len())
		}
		read := data[:len(data)-src.Len()-r.Buffered()]
		var out bytes.Buffer
		if _, err := d.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("accepted section does not re-encode to itself:\n got %q\nwant %q", out.Bytes(), read)
		}
	})
}

// FuzzReadMeta feeds arbitrary bytes to the metadata decoder Open runs,
// seeded with the metadata of a Figure 1 build after one logged insert.
// It must never panic; whether it accepts or rejects, it must not
// allocate more than a fixed multiple of the input (give or take a
// fixed slack), whatever counts the input claims; and metadata it
// accepts must survive encode ∘ decode byte for byte.
func FuzzReadMeta(f *testing.F) {
	base := filepath.Join(f.TempDir(), "ix")
	ix, err := Build(base, figure1Graph(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := ix.InsertTriples(walTestTriples); err != nil {
		f.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(metaPath(base))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	decode := func(data []byte) (*Index, error) {
		ix := new(Index)
		return ix, ix.decodeMeta(bufio.NewReader(bytes.NewReader(data)), int64(len(data)))
	}
	encode := func(t *testing.T, ix *Index) []byte {
		var buf bytes.Buffer
		if err := ix.encodeMeta(bufio.NewWriter(&buf)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := decode(data)
		runtime.ReadMemStats(&after)
		// TotalAlloc is process-wide, hence the slack; the multiple covers
		// a graph node, which takes one byte of input and a few hundred of
		// memory. A count taken on trust sizes gigabytes.
		if got, most := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*len(data)); got > most {
			t.Fatalf("decoding %d bytes allocated %d (at most %d)", len(data), got, most)
		}
		if err != nil {
			return
		}
		once := encode(t, ix)
		back, err := decode(once)
		if err != nil {
			t.Fatalf("re-encoded metadata does not decode: %v", err)
		}
		if again := encode(t, back); !bytes.Equal(once, again) {
			t.Fatalf("round trip changed the metadata:\n got %q\nwant %q", again, once)
		}
	})
}
