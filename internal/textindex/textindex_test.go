package textindex

import (
	"bytes"
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
	// A key count or key length taken on trust would size gigabytes.
	for _, tail := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x0f},    // 2³² keys
		{1, 0xff, 0xff, 0xff, 0xff, 0x0f}, // one key of 2³² bytes
	} {
		data := append([]byte("STX1"), tail...)
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
