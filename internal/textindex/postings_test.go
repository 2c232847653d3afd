package textindex

import (
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
func TestPostingsOutOfOrder(t *testing.T) {
	var p Postings
	rng := rand.New(rand.NewSource(42))
	seen := map[uint32]struct{}{}
	for i := 0; i < 4*postingsBlockLen; i++ {
		v := uint32(rng.Intn(1000))
		p.Add(v)
		p.Add(v) // duplicate adds are no-ops
		seen[v] = struct{}{}
	}
	want := make([]uint32, 0, len(seen))
	for v := range seen {
		want = append(want, v)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := p.AppendTo(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("out-of-order adds: got %v want %v", got, want)
	}
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
