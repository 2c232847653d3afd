package textindex

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
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

// TestSigBitsMatchesDerivation pins the invariant the path index derives
// its signatures by: a label's SigBits equals what KeySignatures derives
// for a document indexed under that label alone, over edge labels (empty,
// one-character tokens, a token equal to the key, IRIs, literal values
// with non-ASCII letters) and random ones; and over many documents of
// several labels each, written and read back so that equal lists share
// their blocks, and dense enough for bitmap blocks, a document's derived
// signature is the OR of its labels' SigBits.
func TestSigBitsMatchesDerivation(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const alphabet = "aZq7_ -#/:.xÉé"
	randomLabel := func() string {
		r := []rune(alphabet)
		var b []rune
		for range rng.Intn(12) {
			b = append(b, r[rng.Intn(len(r))])
		}
		return string(b)
	}
	labels := []string{"", "x", "a b c", "B1432", "b", "Professor", "professor professor", "http://ex.org/a#worksFor",
		"http://www.Department0.University0.edu/", "ciao", "Grüße aus Köln", "x1 y2", "_", "#"}
	for range 200 {
		labels = append(labels, randomLabel())
	}
	for _, l := range labels {
		ix := New(nil)
		ix.Add(l, 0)
		sigs, err := ix.KeySignatures(1)
		if err != nil {
			t.Fatal(err)
		}
		if got := SigBits(l); got != sigs[0] {
			t.Errorf("SigBits(%q) = %x, derived %x", l, got, sigs[0])
		}
	}

	const docs = 3000
	ix := New(nil)
	want := make([]uint64, docs)
	for doc := range uint32(docs) {
		for range 1 + rng.Intn(3) {
			l := labels[rng.Intn(12)]
			if rng.Intn(4) == 0 {
				l = labels[rng.Intn(len(labels))]
			}
			ix.Add(l, doc)
			want[doc] |= SigBits(l)
		}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf, nil, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Index{ix, back} {
		got, err := x.KeySignatures(docs)
		if err != nil {
			t.Fatal(err)
		}
		for doc := range want {
			if got[doc] != want[doc] {
				t.Fatalf("document %d: derived %x, its labels' SigBits %x", doc, got[doc], want[doc])
			}
		}
	}
	if _, err := back.KeySignatures(docs - 1); err == nil {
		t.Error("KeySignatures took lists holding a document past its count")
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

// codecList draws an ascending document list from start out of segments
// that fill whole blocks — dense runs (gaps 1–3: bitmap blocks), sparse
// stretches (gaps up to 5 000: delta blocks), and single blocks of 64
// evenly spread documents whose span sits at the switch-over — then a
// tail of 0–63 documents. A switch-over block follows its predecessor by
// a one-byte delta and has one-byte gaps, so its deltas take 65 bytes
// and its bitmap 5 + span/8: a span of 479 is a bitmap, 480 the tie,
// which keeps the deltas. forms maps each switch-over block's index to
// the form flushTail must pick.
func codecList(rng *rand.Rand, start uint32) (docs []uint32, forms map[int]byte) {
	forms = map[int]byte{}
	cur := start
	add := func(gap uint32) {
		cur += gap
		docs = append(docs, cur)
	}
	add(0)
	for seg := rng.Intn(6); seg >= 0; seg-- {
		// Fill the current block up with dense or sparse documents, then
		// add whole blocks of the segment's kind.
		maxGap := uint32(3)
		switch rng.Intn(3) {
		case 1:
			maxGap = 5000
		case 2:
			for len(docs)%postingsBlockLen != 0 {
				add(1 + uint32(rng.Intn(3)))
			}
			span := uint32(478 + rng.Intn(4))
			forms[len(docs)/postingsBlockLen] = blockDeltas
			if span < 480 {
				forms[len(docs)/postingsBlockLen] = blockBitmap
			}
			first := cur + 1 + uint32(rng.Intn(100))
			for i := uint32(0); i < postingsBlockLen; i++ {
				docs = append(docs, first+(i*span+31)/63)
			}
			cur = docs[len(docs)-1]
			continue
		}
		for n := rng.Intn(3*postingsBlockLen) + 1; n > 0 || len(docs)%postingsBlockLen != 0; n-- {
			add(1 + uint32(rng.Intn(int(maxGap))))
		}
	}
	for n := rng.Intn(postingsBlockLen); n > 0; n-- {
		add(1 + uint32(rng.Intn(200)))
	}
	return docs, forms
}

// postingsOf adds docs to a fresh list.
func postingsOf(docs []uint32) *Postings {
	p := &Postings{}
	for _, d := range docs {
		p.Add(d)
	}
	return p
}

// checkAgainstOracle compares p with its documents want: AppendTo, Len,
// Contains around every document and between them, a full Next walk and
// a monotone SeekGE walk of random strides.
func checkAgainstOracle(t *testing.T, rng *rand.Rand, name string, p *Postings, want []uint32) {
	t.Helper()
	if got := p.AppendTo(nil); !slices.Equal(got, want) || p.Len() != len(want) {
		t.Fatalf("%s: AppendTo = %d documents, Len %d, want %d", name, len(got), p.Len(), len(want))
	}
	for i, d := range want {
		if !p.Contains(d) {
			t.Fatalf("%s: Contains(%d) = false for document %d", name, d, i)
		}
		if d > 0 && (i == 0 || want[i-1] != d-1) && p.Contains(d-1) {
			t.Fatalf("%s: Contains(%d) = true", name, d-1)
		}
	}
	it := newPostingsIter(p)
	for i := 0; ; i++ {
		d, ok := it.Next()
		if ok != (i < len(want)) || ok && d != want[i] {
			t.Fatalf("%s: Next %d = %d, %v", name, i, d, ok)
		}
		if !ok {
			break
		}
	}
	it = newPostingsIter(p)
	for v := uint64(0); v <= uint64(math.MaxUint32); v += 1 + uint64(rng.Intn(40)) {
		j, _ := slices.BinarySearch(want, uint32(v))
		got, ok := it.SeekGE(uint32(v))
		if ok != (j < len(want)) || ok && got != want[j] {
			t.Fatalf("%s: SeekGE(%d) = %d, %v; want index %d of %d", name, v, got, ok, j, len(want))
		}
		if !ok {
			break
		}
		if rng.Intn(4) == 0 { // jump on to a document or just past one
			v = uint64(want[j+rng.Intn(len(want)-j)]) - uint64(rng.Intn(2))
		}
	}
}

// TestPostingsCodecAgainstOracle checks the block codec against a plain
// []uint32: lists of dense runs, sparse stretches and switch-over
// blocks, as added and as read back, through Contains, Next, SeekGE,
// AppendTo and the leapfrog, then Add after ReadFrom on lists read as
// references to one another. Both block forms occur, and each
// switch-over block takes the form its size says.
func TestPostingsCodecAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	forms := map[byte]int{}
	var lists [][]uint32
	for trial := 0; trial < 60; trial++ {
		want, switches := codecList(rng, uint32(rng.Intn(100)))
		if trial%10 == 9 { // end on the last document ID
			shift := math.MaxUint32 - want[len(want)-1]
			for i := range want {
				want[i] += shift
			}
		}
		p := postingsOf(want)
		for i, sk := range p.skips {
			form := p.enc[sk.off]
			forms[form]++
			if f, ok := switches[i]; ok && f != form {
				t.Fatalf("trial %d: switch-over block %d (span %d) took form %d, want %d", trial, i, sk.last-sk.first, form, f)
			}
		}
		checkAgainstOracle(t, rng, fmt.Sprintf("trial %d", trial), p, want)
		lists = append(lists, want)
	}
	if forms[blockDeltas] == 0 || forms[blockBitmap] == 0 {
		t.Fatalf("block forms drawn: %v, want both", forms)
	}

	// The leapfrog: candidates against two unions of two lists each.
	found := 0
	for trial := 0; trial+4 <= len(lists); trial += 4 {
		a, b, c, d := lists[trial], lists[trial+1], lists[trial+2], lists[trial+3]
		if a[0] > 1<<31 || b[0] > 1<<31 || c[0] > 1<<31 || d[0] > 1<<31 {
			continue
		}
		in := func(l []uint32, v uint32) bool { _, ok := slices.BinarySearch(l, v); return ok }
		var cands, want []uint32
		for v := uint32(0); v < 40000; v++ {
			if rng.Intn(3) > 0 {
				cands = append(cands, v)
				if (in(a, v) || in(b, v)) && (in(c, v) || in(d, v)) {
					want = append(want, v)
				}
			}
		}
		found += len(want)
		for _, limit := range []int{1, 7, math.MaxInt} {
			rest := []*unionIter{
				newUnionIter([]*Postings{postingsOf(a), postingsOf(b)}),
				newUnionIter([]*Postings{postingsOf(c), postingsOf(d)}),
			}
			got := leapfrog[uint32](nil, &sliceIter[uint32]{cands}, rest, limit)
			if w := want[:min(limit, len(want))]; !slices.Equal(got, w) {
				t.Fatalf("lists %d–%d: leapfrog at limit %d = %d documents, want %d", trial, trial+3, limit, len(got), len(w))
			}
		}
	}

	if found == 0 {
		t.Fatal("every leapfrog drawn is empty: the check is vacuous")
	}

	// Add after ReadFrom: "b" and "c" equal "a", so they are written as
	// references and read back sharing its blocks; adding to any of the
	// three must leave the others as they were.
	ix := New(nil)
	keys := []string{"a", "b", "c", "d"}
	want := map[string][]uint32{"a": lists[0], "b": lists[0], "c": lists[0], "d": lists[1]}
	for _, k := range keys {
		ix.exact[k] = postingsOf(want[k])
	}
	ix.tokens["a"] = postingsOf(lists[0])
	want["token a"] = lists[0]
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wrote := slices.Clone(buf.Bytes())
	back, err := ReadFrom(&buf, nil, int64(len(wrote)))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), wrote) {
		t.Fatal("the read index writes other bytes")
	}
	list := func(k string) *Postings {
		if k == "token a" {
			return back.tokens["a"]
		}
		return back.exact[k]
	}
	if len(lists[0]) >= postingsBlockLen && &list("a").enc[0] != &list("b").enc[0] {
		t.Fatal(`"b" does not share the blocks of "a"`)
	}
	for round, k := range []string{"b", "a", "token a", "c", "a"} {
		n := []int{5, 70, 130, 64, 1}[round]
		next := want[k][len(want[k])-1]
		grown := slices.Clone(want[k])
		for i := 0; i < n && next < math.MaxUint32-10; i++ {
			next += 1 + uint32(rng.Intn(9))
			list(k).Add(next)
			grown = append(grown, next)
		}
		want[k] = grown
		for _, o := range append(keys, "token a") {
			checkAgainstOracle(t, rng, fmt.Sprintf("after adding to %q, %q", k, o), list(o), want[o])
		}
	}
}

// FuzzReadPostings reads a textindex stream: an accepted one re-encodes
// to exactly the bytes it read, and a refused one names what it refused
// — the magic, a key count, the document count, or the key, by number
// and, once read, by name.
func FuzzReadPostings(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	ix := New(nil)
	for i, k := range []string{"dense", "mixed", "same", "sparse"} {
		docs, _ := codecList(rng, uint32(i))
		if k == "same" {
			docs = ix.exact["dense"].AppendTo(nil)
		}
		ix.exact[k] = postingsOf(docs)
	}
	ix.tokens["dense"] = postingsOf(ix.exact["mixed"].AppendTo(nil))
	ix.tokens["short"] = postingsOf([]uint32{0, 3, 9})
	var seed bytes.Buffer
	if _, err := ix.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2])
	refusal := regexp.MustCompile(`^textindex: (bad magic|read magic|read doc count|read (exact|token) map: (key count|implausible key count|key \d+( "(?:[^"\\]|\\.)*")?:))`)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		ix, err := ReadFrom(br, nil, int64(len(data)))
		if err != nil {
			if !refusal.MatchString(err.Error()) {
				t.Fatalf("refusal names no key: %v", err)
			}
			return
		}
		read := len(data) - src.Len() - br.Buffered()
		var out bytes.Buffer
		if _, err := ix.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:read]) {
			t.Fatalf("accepted %q, which re-encodes to %q", data[:read], out.Bytes())
		}
	})
}
