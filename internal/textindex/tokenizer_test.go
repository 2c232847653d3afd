package textindex

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sama/internal/datasets"
)

var update = flag.Bool("update", false, "rewrite testdata/tokenize_lubm.golden")

// TestTokenizeBoundaries covers the splitting rules beyond the ASCII
// camelCase labels of TestTokenize: non-ASCII letters and digits,
// acronym runs, digit/letter boundaries, runes whose lower-case form has
// a different byte length, and invalid UTF-8.
func TestTokenizeBoundaries(t *testing.T) {
	cases := map[string][]string{
		"HTTPServer":          {"http", "server"},
		"parseHTTPRequest2x":  {"parse", "http", "request", "2", "x"},
		"XMLHttpRequest":      {"xml", "http", "request"},
		"ÉcoleNormale":        {"école", "normale"},
		"straßeNummer12":      {"straße", "nummer", "12"},
		"ΑθήναΠόλη":           {"αθήνα", "πόλη"},
		"МоскваГород":         {"москва", "город"},
		"İstanbulŞehir":       {"istanbul", "şehir"},
		"Köln٤٢abc":           {"köln", "٤٢", "abc"},
		"room１２Ａ":             {"room", "１２", "ａ"},
		"東京Tower":             {"東京tower"},
		"a\xffB":              {"a", "b"},
		"ABCDef":              {"abc", "def"},
		"x1Y2Z":               {"x", "1", "y", "2", "z"},
		"http://ex.org/é/Ünï": {"ünï"},
		"Ⅻ":                   nil,
	}
	for in, want := range cases {
		if got := Tokenize(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestTokenizeLUBMGolden compares the tokens of every distinct label of
// LUBM 10 k — node and edge labels — with the output of the tokenizer
// this one replaced (c90f341), checked in keyed by local name, which is
// all Tokenize reads of a label.
func TestTokenizeLUBMGolden(t *testing.T) {
	g := datasets.LUBM{}.Generate(10000, 1)
	got := map[string]string{}
	for _, tr := range g.Triples() {
		for _, term := range []string{tr.S.Label(), tr.P.Label(), tr.O.Label()} {
			got[LocalName(term)] = strings.Join(Tokenize(term), " ")
		}
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, n := range names {
		lines[i] = n + "\t" + got[n]
	}
	path := filepath.Join("testdata", "tokenize_lubm.golden")
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d distinct local names, golden has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Fatalf("line %d: got %q, want %q", i+1, lines[i], want[i])
		}
	}
}

// TestTokenizeAllocations pins the tokenizer off the allocation list:
// the token slice and at most one lower-cased copy of the local name.
func TestTokenizeAllocations(t *testing.T) {
	for label, max := range map[string]float64{
		"http://lubm.example.org/University0/Department3/FullProfessor7": 2,
		"http://lubm.example.org/vocab#takesCourse":                      2,
		"advisor": 1,
	} {
		if n := testing.AllocsPerRun(100, func() { Tokenize(label) }); n > max {
			t.Errorf("Tokenize(%q) allocates %v objects, want ≤ %v", label, n, max)
		}
	}
}
