package textindex

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestLocalName(t *testing.T) {
	cases := map[string]string{
		"http://ex.org/vocab#Professor":    "Professor",
		"http://ex.org/people/CarlaBunes":  "CarlaBunes",
		"http://ex.org/people/CarlaBunes/": "CarlaBunes",
		"Health Care":                      "Health Care",
		"":                                 "",
		"http://ex.org/a#b#c":              "c",
	}
	for in, want := range cases {
		if got := LocalName(in); got != want {
			t.Errorf("LocalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize("http://ex.org#HealthCare"); got != "healthcare" {
		t.Errorf("Normalize = %q", got)
	}
}

func TestTokenize(t *testing.T) {
	cases := map[string][]string{
		"FullProfessor7":         {"full", "professor", "7"},
		"health_care":            {"health", "care"},
		"Health Care":            {"health", "care"},
		"http://ex.org#worksFor": {"works", "for"},
		"HTTPServer":             {"http", "server"},
		"takesCourse":            {"takes", "course"},
		"ABC":                    {"abc"},
		"a1b2":                   {"a", "1", "b", "2"},
		"":                       nil,
		"--":                     nil,
		"GraduateStudent42@univ": {"graduate", "student", "42", "univ"},
	}
	for in, want := range cases {
		if got := Tokenize(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestThesaurusExpand(t *testing.T) {
	th := NewThesaurus()
	th.Add("professor", "teacher")
	th.Add("Professor", "faculty") // normalisation collapses case
	got := th.Expand("professor")
	want := []string{"professor", "faculty", "teacher"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Expand = %v, want %v", got, want)
	}
	// Symmetry.
	if got := th.Expand("teacher"); !reflect.DeepEqual(got, []string{"teacher", "professor"}) {
		t.Errorf("reverse Expand = %v", got)
	}
	// Unknown token expands to itself.
	if got := th.Expand("zzz"); !reflect.DeepEqual(got, []string{"zzz"}) {
		t.Errorf("unknown Expand = %v", got)
	}
	// Self-links and empties are ignored.
	th.Add("x", "x")
	th.Add("", "y")
	if th.Len() != 3 {
		t.Errorf("Len = %d, want 3", th.Len())
	}
	// Nil thesaurus is usable.
	var nilT *Thesaurus
	if got := nilT.Expand("a"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("nil Expand = %v", got)
	}
}

func TestThesaurusAddGroup(t *testing.T) {
	th := NewThesaurus()
	th.AddGroup("a", "b", "c")
	if got := th.Expand("a"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("group Expand = %v", got)
	}
}

func TestBenchmarkThesaurusCoversVocabularies(t *testing.T) {
	th := BenchmarkThesaurus()
	for _, pair := range [][2]string{
		{"professor", "teacher"},
		{"bill", "act"},
		{"product", "item"},
		{"post", "entry"},
	} {
		exp := th.Expand(pair[0])
		found := false
		for _, e := range exp {
			if e == pair[1] {
				found = true
			}
		}
		if !found {
			t.Errorf("%s should expand to %s, got %v", pair[0], pair[1], exp)
		}
	}
}

func TestIndexExactLookup(t *testing.T) {
	ix := New(nil)
	ix.Add("http://ex.org#Professor", 1)
	ix.Add("Professor", 2)
	ix.Add("Student", 3)
	got := ix.Lookup("professor")
	if !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("Lookup = %v", got)
	}
	if ix.TermCount() != 2 {
		t.Errorf("TermCount = %d, want 2", ix.TermCount())
	}
}

func TestIndexTokenLookup(t *testing.T) {
	ix := New(nil)
	ix.Add("FullProfessor", 1)
	ix.Add("AssistantProfessor", 2)
	ix.Add("Student", 3)
	got := ix.Lookup("professor")
	if !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("token Lookup = %v, want [1 2]", got)
	}
}

func TestIndexThesaurusLookup(t *testing.T) {
	th := NewThesaurus()
	th.Add("professor", "teacher")
	ix := New(th)
	ix.Add("Teacher", 5)
	ix.Add("FullProfessor", 6)
	got := ix.Lookup("Professor")
	if !reflect.DeepEqual(got, []uint32{5, 6}) {
		t.Errorf("thesaurus Lookup = %v, want [5 6]", got)
	}
	// Without the thesaurus only the token match remains.
	ix2 := New(nil)
	ix2.Add("Teacher", 5)
	ix2.Add("FullProfessor", 6)
	if got := ix2.Lookup("Professor"); !reflect.DeepEqual(got, []uint32{6}) {
		t.Errorf("no-thesaurus Lookup = %v, want [6]", got)
	}
}

func TestIndexPostingsDedup(t *testing.T) {
	ix := New(nil)
	ix.Add("same", 3)
	for i := 0; i < 5; i++ {
		ix.Add("same", 7)
	}
	if got := ix.Lookup("same"); !reflect.DeepEqual(got, []uint32{3, 7}) {
		t.Errorf("postings = %v, want [3 7]", got)
	}
}

func TestAppendPostingProperty(t *testing.T) {
	// Property: postings of sorted adds, repeats included, are sorted and
	// deduplicated, Len matches, and Contains agrees with membership.
	f := func(docs []uint32) bool {
		sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
		var p Postings
		for _, d := range docs {
			p.Add(d)
		}
		ps := p.AppendTo(nil)
		if !sort.SliceIsSorted(ps, func(i, j int) bool { return ps[i] < ps[j] }) {
			return false
		}
		for i := 1; i < len(ps); i++ {
			if ps[i] == ps[i-1] {
				return false
			}
		}
		want := map[uint32]struct{}{}
		for _, d := range docs {
			want[d] = struct{}{}
		}
		if len(want) != len(ps) || p.Len() != len(ps) {
			return false
		}
		for _, d := range docs {
			if !p.Contains(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexSerialisationRoundTrip(t *testing.T) {
	th := BenchmarkThesaurus()
	ix := New(th)
	labels := []string{"FullProfessor", "GraduateStudent", "takesCourse",
		"http://ex.org#worksFor", "Health Care", "B1432"}
	for i, l := range labels {
		for d := 0; d <= i; d++ {
			ix.Add(l, uint32(d*10+i))
		}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf, th, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if !reflect.DeepEqual(ix.Lookup(l), back.Lookup(l)) {
			t.Errorf("lookup %q differs after round trip: %v vs %v",
				l, ix.Lookup(l), back.Lookup(l))
		}
	}
	if back.TermCount() != ix.TermCount() {
		t.Errorf("TermCount differs: %d vs %d", back.TermCount(), ix.TermCount())
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("nope")), nil, 4); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil), nil, 0); err == nil {
		t.Error("empty stream accepted")
	}
	// A stream of the format before bitmap blocks is refused.
	if _, err := ReadFrom(bytes.NewReader([]byte("STX1\x00\x00\x00")), nil, 7); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("STX1 stream: err = %v, want a bad magic", err)
	}
	// A key count or key length taken on trust would size gigabytes.
	for _, tail := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x0f},    // 2³² keys
		{1, 0xff, 0xff, 0xff, 0xff, 0x0f}, // one key of 2³² bytes
	} {
		data := append(indexMagic[:], tail...)
		if _, err := ReadFrom(bytes.NewReader(data), nil, int64(len(data))); err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("stream %q: err = %v, want an implausible size", data, err)
		}
	}
}

func TestLookupEmptyIndex(t *testing.T) {
	ix := New(nil)
	if got := ix.Lookup("anything"); len(got) != 0 {
		t.Errorf("empty index Lookup = %v", got)
	}
}

// TestReadFromRefusesWhatWriteToNeverWrites feeds ReadFrom streams that
// differ from a written one in one way each: every one is refused with
// an error that names the key and says what is wrong, and the written
// stream itself reads.
func TestReadFromRefusesWhatWriteToNeverWrites(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	// entry is a key and its list: a head, then the list's bytes.
	entry := func(key string, head uint64, body ...[]byte) []byte {
		e := append(uv(uint64(len(key))), key...)
		e = append(e, uv(head)...)
		for _, b := range body {
			e = append(e, b...)
		}
		return e
	}
	stream := func(entries ...[]byte) []byte {
		s := append(indexMagic[:], uv(uint64(len(entries)))...)
		for _, e := range entries {
			s = append(s, e...)
		}
		return append(s, 0, 0) // no token keys, no documents
	}
	deltas := func(gaps ...uint64) []byte {
		var b []byte
		for _, g := range gaps {
			b = append(b, uv(g)...)
		}
		return b
	}
	repeat := func(gap uint64, n int) []uint64 {
		g := make([]uint64, n)
		for i := range g {
			g[i] = gap
		}
		return g
	}
	// A block of 64 documents 8 apart takes 65 bytes as deltas and 68 as
	// a bitmap; 64 consecutive ones take 65 and 11.
	spread := append([]byte{blockDeltas}, deltas(repeat(8, 64)...)...)
	full := append([]byte{blockBitmap, 1, 63}, bytes.Repeat([]byte{0xff}, 8)...)
	ok := stream(entry("a", 2*64, spread), entry("b", 2*2, deltas(3, 4)), entry("c", 2*0+1))
	if _, err := ReadFrom(bytes.NewReader(ok), nil, int64(len(ok))); err != nil {
		t.Fatalf("a well-formed stream is refused: %v", err)
	}
	bitmapOf := func(first, span uint64, bm []byte) []byte {
		return append(append([]byte{blockBitmap}, append(uv(first), uv(span)...)...), bm...)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"a run as deltas", stream(entry("a", 2*64, append([]byte{blockDeltas}, deltas(repeat(1, 64)...)...))), `key 0 "a": block 0 is not in the form`},
		{"a spread run as a bitmap", stream(entry("a", 2*64, bitmapOf(8, 504, bytes.Repeat([]byte{1}, 64)))), `key 0 "a": block 0 is not in the form`},
		{"a bitmap of 63", stream(entry("a", 2*64, bitmapOf(1, 63, append(bytes.Repeat([]byte{0xff}, 7), 0x7f)))), `key 0 "a": bitmap holds 63 documents`},
		{"a bitmap past its span", stream(entry("a", 2*64, bitmapOf(1, 60, bytes.Repeat([]byte{0xff}, 8)))), `key 0 "a": bitmap sets a bit past document 61`},
		{"a bitmap longer than deltas could be", stream(entry("a", 2*64, bitmapOf(1, 1<<20, nil))), `key 0 "a": bitmap over 1048577 IDs from 1`},
		{"an unknown form", stream(entry("a", 2*64, []byte{2})), `key 0 "a": block 0: form 2`},
		{"a repeated document", stream(entry("a", 2*2, deltas(5, 0))), `key 0 "a": document 1: delta 0 from 5`},
		{"a document past uint32", stream(entry("a", 2*2, deltas(5, 1<<32))), `key 0 "a": document 1: delta 4294967296 from 5`},
		{"an overlong head", stream(append(entry("a", 0)[:2], 0x80, 0x00)), `key 0 "a": overlong varint`},
		{"a list written out twice", stream(entry("a", 2*64, full), entry("b", 2*64, full)), `key 1 "b": writes out the list of key 0`},
		{"a reference forward", stream(entry("a", 2*1+1), entry("b", 0)), `key 0 "a": refers to key 1`},
		{"a reference to a reference", stream(entry("a", 0), entry("b", 2*0+1), entry("c", 2*1+1)), `key 2 "c": refers to key 1`},
		{"keys out of order", stream(entry("b", 0), entry("a", 2*0+1)), `key 1 "a": follows "b"`},
		{"a repeated key", stream(entry("a", 0), entry("a", 2*0+1)), `key 1 "a": follows "a"`},
		{"a cut key", stream(entry("a", 0))[:6], `key 0: EOF`},
		{"a cut list", stream(entry("a", 0))[:7], `key 0 "a": unexpected EOF`},
	} {
		_, err := ReadFrom(bytes.NewReader(c.data), nil, int64(len(c.data)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}
