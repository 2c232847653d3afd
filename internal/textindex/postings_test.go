package textindex

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestPostingsAcrossBlocks exercises the compressed representation past
// the first block boundary: appends, membership, decoding, and seeking
// must all agree on a list spanning many blocks plus a partial tail.
func TestPostingsAcrossBlocks(t *testing.T) {
	var p Postings
	const n = 10*postingsBlockLen + 17
	want := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		v := uint32(i * 3) // gaps so misses exist between members
		p.Add(v)
		want = append(want, v)
	}
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	if got := p.AppendTo(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendTo mismatch: got %d values", len(got))
	}
	for i := 0; i < n; i++ {
		if !p.Contains(uint32(i * 3)) {
			t.Fatalf("Contains(%d) = false", i*3)
		}
		if p.Contains(uint32(i*3 + 1)) {
			t.Fatalf("Contains(%d) = true", i*3+1)
		}
	}
	it := newPostingsIter(&p)
	// SeekGE on a member returns it; on a gap, the next member; past the
	// end, exhaustion.
	if v, ok := it.SeekGE(postingsBlockLen * 9); !ok || v != postingsBlockLen*9 {
		t.Fatalf("SeekGE(member) = %d, %v", v, ok)
	}
	if v, ok := it.SeekGE(postingsBlockLen*9 + 2); !ok || v != postingsBlockLen*9+3 {
		t.Fatalf("SeekGE(gap) = %d, %v", v, ok)
	}
	if _, ok := it.SeekGE(uint32(n * 3)); ok {
		t.Fatal("SeekGE past the end should exhaust")
	}
}

// TestPostingsOutOfOrder pins the slow splice path: inserts below the
// current maximum must land sorted and deduplicated even once blocks
// have been flushed.
// TestPostingsOutOfOrder: sorted adds with repeats keep each document
// once, and a document below the last one added panics.
func TestPostingsOutOfOrder(t *testing.T) {
	var p Postings
	rng := rand.New(rand.NewSource(42))
	docs := make([]uint32, 4*postingsBlockLen)
	for i := range docs {
		docs[i] = uint32(rng.Intn(1000))
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	var want []uint32
	for _, v := range docs {
		p.Add(v)
		p.Add(v) // duplicate adds are no-ops
		if len(want) == 0 || want[len(want)-1] != v {
			want = append(want, v)
		}
	}
	if got := p.AppendTo(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted adds: got %v want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("adding a document below the last one did not panic")
		}
	}()
	p.Add(want[len(want)-1] - 1)
}

// TestLookupIntersect checks the leapfrog intersection against the
// naive per-label Lookup intersection on randomized data.
func TestLookupIntersect(t *testing.T) {
	th := NewThesaurus()
	th.Add("professor", "teacher")
	ix := New(th)
	rng := rand.New(rand.NewSource(7))
	labels := []string{"FullProfessor", "worksFor", "Department", "Teacher"}
	for doc := uint32(0); doc < 2000; doc++ {
		for _, l := range labels {
			if rng.Intn(3) == 0 {
				ix.Add(l, doc)
			}
		}
	}
	naive := func(ls []string) []uint32 {
		counts := map[uint32]int{}
		for _, l := range ls {
			for _, d := range ix.Lookup(l) {
				counts[d]++
			}
		}
		var out []uint32
		for d, c := range counts {
			if c == len(ls) {
				out = append(out, d)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for _, probe := range [][]string{
		{"Professor", "worksFor"},                         // thesaurus + exact
		{"Professor", "worksFor", "Department"},           // three-way
		{"Department", "nosuchlabel"},                     // one empty: empty result
		{"FullProfessor", "Teacher", "worksFor", "dept."}, // includes an absent label
	} {
		got := ix.LookupIntersect(probe)
		want := naive(probe)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("LookupIntersect(%v) = %d docs, naive = %d docs", probe, len(got), len(want))
		}
	}
}

// TestLookupFromEqualsDefinition checks LookupFrom against Lookup's
// documents at or above from, for every from up to past the end — block
// boundaries, inside blocks, the tail — with thesaurus expansion merging
// several lists.
func TestLookupFromEqualsDefinition(t *testing.T) {
	th := NewThesaurus()
	th.Add("professor", "teacher")
	ix := New(th)
	rng := rand.New(rand.NewSource(3))
	for doc := uint32(0); doc < 700; doc++ {
		for _, l := range []string{"FullProfessor", "Teacher", "worksFor"} {
			if rng.Intn(2) == 0 {
				ix.Add(l, doc)
			}
		}
	}
	for _, label := range []string{"Professor", "worksFor", "nosuchlabel"} {
		all := ix.Lookup(label)
		for from := uint32(0); from <= 710; from++ {
			var want []uint32
			for _, d := range all {
				if d >= from {
					want = append(want, d)
				}
			}
			if got := LookupFrom[uint32](ix, nil, label, from); !reflect.DeepEqual(got, want) {
				t.Fatalf("LookupFrom(%q, %d) = %v, want %v", label, from, got, want)
			}
		}
	}
}

// TestProbeMaskSoundness pins the one-sided error direction the
// signature-gated pre-rank depends on: whenever Lookup(query) returns a
// document, that document's SigBits (over the label it was indexed
// under) must share a bit with ProbeMask(query). A violation would let
// the pre-rank reject a genuine expansion match.
func TestProbeMaskSoundness(t *testing.T) {
	th := BenchmarkThesaurus()
	ix := New(th)
	indexed := []string{"FullProfessor", "GraduateStudent", "takesCourse",
		"http://ex.org#worksFor", "Health Care", "B1432", "Teacher", "Dept42"}
	for i, l := range indexed {
		ix.Add(l, uint32(i))
	}
	queries := []string{"Professor", "student", "lecturer", "course",
		"works", "healthcare", "b1432", "faculty", "department"}
	for _, q := range queries {
		mask := ProbeMask(th, q)
		for _, doc := range ix.Lookup(q) {
			if SigBits(indexed[doc])&mask == 0 {
				t.Errorf("Lookup(%q) matched doc %q but SigBits∩ProbeMask = 0", q, indexed[doc])
			}
		}
	}
}

// intersectAmongRef is IntersectAmong's definition, spelled with the
// naive per-label union: the first limit candidates every label matches.
func intersectAmongRef(ix *Index, cands []uint32, labels []string, limit int) []uint32 {
	out := []uint32{}
	if len(labels) == 0 {
		return out
	}
	count := map[uint32]int{}
	for _, l := range labels {
		for _, d := range naiveLookup(ix, l) {
			count[d]++
		}
	}
	for _, c := range cands {
		if len(out) < limit && count[c] == len(labels) {
			out = append(out, c)
		}
	}
	return out
}

// TestIntersectAmongEqualsDefinition checks the bounded leapfrog against
// its definition — the first limit elements of cands ∩
// LookupIntersect(labels) — on posting lists that end on a block
// boundary, in a tail, and hold a single document, with repeated adds,
// with and without thesaurus expansion, over random ascending candidate
// lists of several densities and every limit in {1, 2, budget, ∞}.
func TestIntersectAmongEqualsDefinition(t *testing.T) {
	const docs, budget = 1500, 32
	rng := rand.New(rand.NewSource(11))
	for tname, thes := range map[string]*Thesaurus{"plain": nil, "thesaurus": BenchmarkThesaurus()} {
		ix := New(thes)
		// exact sizes: one block, two blocks, two blocks and a tail of two,
		// one document; the rest are random thirds.
		sized := map[string]int{"Department0": 64, "worksFor": 128, "Teacher": 130, "Dept7": 1}
		for label, n := range sized {
			perm := rng.Perm(docs)[:n]
			sort.Ints(perm)
			for _, d := range perm {
				ix.Add(label, uint32(d))
			}
		}
		for d := uint32(0); d < docs; d++ {
			for _, label := range []string{"FullProfessor", "GraduateStudent", "takesCourse", "Lecturer"} {
				if rng.Intn(3) == 0 {
					ix.Add(label, d)
					ix.Add(label, d) // a repeated add is a no-op
				}
			}
		}
		probes := [][]string{
			{"Professor"},
			{"Professor", "worksFor"},
			{"Professor", "Teacher", "Department"},
			{"FullProfessor", "takesCourse", "GraduateStudent", "worksFor"},
			{"Dept7", "Lecturer"},
			{"Department0", "nosuchlabel"},
			{},
		}
		for _, density := range []float64{0, 0.05, 0.5, 1} {
			var cands []uint32
			for d := uint32(0); d < docs+50; d++ {
				if rng.Float64() < density {
					cands = append(cands, d)
				}
			}
			for _, labels := range probes {
				all := map[uint32]bool{}
				for _, d := range ix.LookupIntersect(labels) {
					all[d] = true
				}
				for _, limit := range []int{1, 2, budget, math.MaxInt} {
					want := intersectAmongRef(ix, cands, labels, limit)
					got := IntersectAmong(ix, []uint32{}, cands, labels, limit)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: IntersectAmong(%d cands, %v, limit %d) = %v, want %v", tname, len(cands), labels, limit, got, want)
					}
					for _, d := range got {
						if !all[d] {
							t.Fatalf("%s: %v: %d is not in LookupIntersect", tname, labels, d)
						}
					}
					// Filtering in place is part of the contract.
					own := append([]uint32{}, cands...)
					if got := IntersectAmong(ix, own[:0], own, labels, limit); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: in-place IntersectAmong(%v, limit %d) = %v, want %v", tname, labels, limit, got, want)
					}
				}
			}
		}
	}
}

// FuzzIntersectAmong builds a candidate list and up to four label
// posting lists from the fuzz input (the first byte gives the label
// count and the limit; then two bytes per document gap, dealt round
// robin, every other document of a label going under its thesaurus
// synonym) and checks IntersectAmong, at that limit and unbounded,
// against a map intersection filtered through the candidates.
func FuzzIntersectAmong(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nlabels, limit := 1+int(data[0]&3), 1+int(data[0]>>2)
		data = data[1:]
		thes := NewThesaurus()
		labels := []string{"la", "lb", "lc", "ld"}[:nlabels]
		syns := []string{"sa", "sb", "sc", "sd"}
		for i, l := range labels {
			thes.Add(l, syns[i])
		}
		ix := New(thes)
		var cands []uint32
		has := make([]map[uint32]bool, nlabels)
		for i := range has {
			has[i] = map[uint32]bool{}
		}
		cur := make([]uint32, nlabels+1)
		for i := 0; i+1 < len(data); i += 2 {
			k := (i / 2) % (nlabels + 1)
			gap := uint32(data[i])<<8 | uint32(data[i+1])
			if cur[k] > math.MaxUint32-gap {
				break
			}
			cur[k] += gap
			switch {
			case k > 0 && len(has[k-1])%2 == 1:
				ix.Add(syns[k-1], cur[k])
				has[k-1][cur[k]] = true
			case k > 0:
				ix.Add(labels[k-1], cur[k])
				has[k-1][cur[k]] = true
			case gap > 0 || len(cands) == 0:
				cands = append(cands, cur[0]) // strictly ascending
			}
		}
		for _, lim := range []int{limit, math.MaxInt} {
			want := []uint32{}
			for _, c := range cands {
				in := len(want) < lim
				for _, h := range has {
					in = in && h[c]
				}
				if in {
					want = append(want, c)
				}
			}
			if got := IntersectAmong(ix, []uint32{}, cands, labels, lim); !reflect.DeepEqual(got, want) {
				t.Fatalf("IntersectAmong(%v, %v, limit %d) = %v, want %v", cands, labels, lim, got, want)
			}
		}
	})
}
