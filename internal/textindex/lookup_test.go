package textindex

import (
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"

	"sama/internal/baselines"
	"sama/internal/datasets"
	"sama/internal/rdf"
)

// naiveLookup is the definition Lookup implements, spelled with a map:
// the union of the exact list of the normalised label and, for every
// token (or thesaurus expansion of a token) of two characters or more,
// that key's exact and token lists.
func naiveLookup(ix *Index, label string) []uint32 {
	set := map[uint32]struct{}{}
	addAll := func(p *Postings) {
		for _, d := range p.AppendTo(nil) {
			set[d] = struct{}{}
		}
	}
	addAll(ix.exact[Normalize(label)])
	for _, tok := range Tokenize(label) {
		keys := []string{tok}
		if ix.thes != nil {
			keys = ix.thes.Expand(tok)
		}
		for _, k := range keys {
			if len(k) >= 2 {
				addAll(ix.exact[k])
				addAll(ix.tokens[k])
			}
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]uint32, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestLookupMatchesNaiveUnion compares Lookup — fresh, and through one
// scratch reused across every label — with the naive union, over every
// label of the Figure 1 graph and of LUBM 2 k plus a few query-only
// labels, with and without the benchmark thesaurus.
func TestLookupMatchesNaiveUnion(t *testing.T) {
	graphs := map[string]*rdf.Graph{
		"fig1": baselines.Figure1Graph(),
		"lubm": datasets.LUBM{}.Generate(2000, 5),
	}
	for gname, g := range graphs {
		for tname, thes := range map[string]*Thesaurus{"plain": nil, "thesaurus": BenchmarkThesaurus()} {
			ix := New(thes)
			labels := map[string]struct{}{}
			for doc, tr := range g.Triples() {
				for _, l := range []string{tr.S.Label(), tr.P.Label(), tr.O.Label()} {
					ix.Add(l, uint32(doc))
					labels[l] = struct{}{}
				}
			}
			for _, l := range []string{"Professor", "student", "type", "advisor", "Department",
				"healthCare", "backer", "Male", "nosuchlabel", "x", ""} {
				labels[l] = struct{}{}
			}
			var sc Scratch
			for l := range labels {
				want := naiveLookup(ix, l)
				if got := ix.Lookup(l); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: Lookup(%q) = %d docs, naive union %d", gname, tname, l, len(got), len(want))
				}
				got := ix.LookupScratch(&sc, l)
				if len(got) == 0 {
					got = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: LookupScratch(%q) on a reused scratch = %d docs, naive union %d",
						gname, tname, l, len(got), len(want))
				}
			}
		}
	}
}

// TestSingleTokenLabelGathersEachListOnce pins the lists a lookup reads
// for a label that is its own only token: the exact list is gathered
// once, not again when the token comes round (the union deduplicated
// the second copy, so only the decode and the merge were paid twice).
func TestSingleTokenLabelGathersEachListOnce(t *testing.T) {
	cases := []struct {
		thes    *Thesaurus
		indexed []string
		label   string
		want    int
	}{
		// exact[type], tokens[type] (from typeOf).
		{nil, []string{"type", "typeOf"}, "type", 2},
		// exact[advisor], tokens[advisor] (from chiefAdvisor),
		// exact[mentor]; "supervisor" is indexed nowhere.
		{BenchmarkThesaurus(), []string{"advisor", "mentor", "chiefAdvisor"}, "advisor", 3},
		// Two tokens: exact[takescourse], tokens[takes], tokens[course].
		{nil, []string{"takesCourse"}, "takesCourse", 3},
	}
	for _, c := range cases {
		ix := New(c.thes)
		for doc, l := range c.indexed {
			ix.Add(l, uint32(doc))
		}
		lists := ix.expansionPostings(new(Scratch), c.label)
		if len(lists) != c.want {
			t.Errorf("lookup of %q gathers %d lists, want %d", c.label, len(lists), c.want)
		}
		seen := map[*Postings]bool{}
		for _, p := range lists {
			if seen[p] {
				t.Errorf("lookup of %q gathers one list twice", c.label)
			}
			seen[p] = true
		}
	}
}

// naiveUnion is the sorted, deduplicated union of the lists.
func naiveUnion(lists [][]uint32) []uint32 {
	set := map[uint32]struct{}{}
	for _, l := range lists {
		for _, d := range l {
			set[d] = struct{}{}
		}
	}
	out := make([]uint32, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FuzzPostingsSeekGE builds up to four postings lists from the fuzz
// input (two bytes per document gap; the first byte of the input gives
// the list count and how many documents apart the probes are) and checks the compressed layout
// against plain slices: decode ∘ encode is the identity, Contains and a
// monotone SeekGE walk agree with a linear scan, the serialised delta
// stream decodes to the same documents, and the scratch union of the
// lists equals the map union.
func FuzzPostingsSeekGE(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nlists, stride := 1+int(data[0]&3), 1+int(data[0]>>2)
		data = data[1:]
		lists := make([][]uint32, nlists)
		posts := make([]*Postings, nlists)
		for i := range posts {
			posts[i] = &Postings{}
		}
		cur := make([]uint32, nlists)
		for i := 0; i+1 < len(data); i += 2 {
			k := (i / 2) % nlists
			gap := uint32(data[i])<<8 | uint32(data[i+1])
			if gap == 0 && len(lists[k]) > 0 {
				posts[k].Add(cur[k]) // a repeated document is a no-op
				continue
			}
			if cur[k] > math.MaxUint32-gap {
				break
			}
			cur[k] += gap
			posts[k].Add(cur[k])
			lists[k] = append(lists[k], cur[k])
		}
		for k, p := range posts {
			want := lists[k]
			if got := p.AppendTo(nil); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("list %d: decoded %v, added %v", k, got, want)
			}
			if p.Len() != len(want) {
				t.Fatalf("list %d: Len = %d, want %d", k, p.Len(), len(want))
			}
			// The wire form is one globally chained delta stream.
			var prev uint64
			wire := p.appendWire(nil)
			for i, w := range want {
				d, m := binary.Uvarint(wire)
				if m <= 0 {
					t.Fatalf("list %d: wire stream ends at document %d of %d", k, i, len(want))
				}
				wire = wire[m:]
				if prev += d; uint32(prev) != w {
					t.Fatalf("list %d: wire document %d = %d, want %d", k, i, prev, w)
				}
			}
			if len(wire) != 0 {
				t.Fatalf("list %d: %d trailing wire bytes", k, len(wire))
			}
			// Monotone SeekGE walk against a linear scan: around every
			// stride-th document, then past the end.
			it := newPostingsIter(p)
			j := 0
			var floor uint32
			probe := func(v uint32) {
				if v < floor {
					return
				}
				floor = v
				for j < len(want) && want[j] < v {
					j++
				}
				got, ok := it.SeekGE(v)
				if ok != (j < len(want)) || (ok && got != want[j]) {
					t.Fatalf("list %d: SeekGE(%d) = %d, %v; linear scan finds index %d of %v", k, v, got, ok, j, want)
				}
				if in := ok && got == v; p.Contains(v) != in {
					t.Fatalf("list %d: Contains(%d) = %v, SeekGE found %d, %v", k, v, !in, got, ok)
				}
			}
			for i := 0; i < len(want); i += stride {
				if want[i] > 0 {
					probe(want[i] - 1)
				}
				probe(want[i])
				if want[i] < math.MaxUint32 {
					probe(want[i] + 1)
				}
			}
			if n := len(want); n == 0 || want[n-1] < math.MaxUint32 {
				probe(floor + 1)
			}
			for _, w := range want {
				if !p.Contains(w) {
					t.Fatalf("list %d: Contains(%d) = false for an added document", k, w)
				}
			}
		}
		var sc Scratch
		runs := make([][]uint32, 0, nlists)
		total := 0
		for _, l := range lists {
			if len(l) > 0 {
				runs = append(runs, l)
				total += len(l)
			}
		}
		got := sc.unionRuns(runs, total)
		if want := naiveUnion(lists); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
			t.Fatalf("union of %d runs = %v, want %v", len(runs), got, want)
		}
	})
}
