package textindex

import (
	"encoding/binary"
	"math"
	"sort"
)

// postingsBlockLen is the number of documents per compressed block. 64
// keeps a block's delta scan within one cache line or two while the
// skip table stays ~1.5% of the decoded size.
const postingsBlockLen = 64

// postingsSkip is one skip-pointer entry: where block i's bytes start
// and which document range it covers. prev is the last document of the
// preceding block (0 for the first), i.e. the delta base, so a block
// can be decoded without touching its predecessors while the
// concatenated blocks still form one globally-chained delta stream —
// byte-identical to the serialised wire format.
type postingsSkip struct {
	prev  uint32
	first uint32
	last  uint32
	off   uint32
}

// Postings is a sorted, deduplicated document list stored as
// delta-varint blocks with a skip table, plus a small uncompressed
// append tail. Membership tests binary-search the skip table and scan
// one block; iteration supports SeekGE for galloping intersection.
// The zero value is an empty list.
type Postings struct {
	enc   []byte
	skips []postingsSkip
	tail  []uint32
	n     int
}

// Len returns the number of documents. Nil-safe.
func (p *Postings) Len() int {
	if p == nil {
		return 0
	}
	return p.n
}

func (p *Postings) lastValue() uint32 {
	if len(p.tail) > 0 {
		return p.tail[len(p.tail)-1]
	}
	return p.skips[len(p.skips)-1].last
}

// Add inserts doc, keeping the list sorted and deduplicated. Documents
// are typically added in increasing order, which appends to the tail in
// O(1) amortised; an out-of-order insert decodes, splices, and
// re-encodes the whole list.
func (p *Postings) Add(doc uint32) {
	if p.n > 0 {
		last := p.lastValue()
		if doc == last {
			return
		}
		if doc < last {
			p.insertSlow(doc)
			return
		}
	}
	p.tail = append(p.tail, doc)
	p.n++
	if len(p.tail) == postingsBlockLen {
		p.flushTail()
	}
}

// flushTail compresses the full tail into one block.
func (p *Postings) flushTail() {
	prev := uint32(0)
	if n := len(p.skips); n > 0 {
		prev = p.skips[n-1].last
	}
	p.skips = append(p.skips, postingsSkip{
		prev:  prev,
		first: p.tail[0],
		last:  p.tail[len(p.tail)-1],
		off:   uint32(len(p.enc)),
	})
	var buf [binary.MaxVarintLen32]byte
	for _, v := range p.tail {
		p.enc = append(p.enc, buf[:binary.PutUvarint(buf[:], uint64(v-prev))]...)
		prev = v
	}
	p.tail = p.tail[:0]
}

// insertSlow splices doc into the middle of the list: decode, insert,
// re-encode. Rare — only incremental updates adding an old document
// under a new label reach it.
func (p *Postings) insertSlow(doc uint32) {
	vals := p.AppendTo(make([]uint32, 0, p.n+1))
	i := sort.Search(len(vals), func(i int) bool { return vals[i] >= doc })
	if i < len(vals) && vals[i] == doc {
		return
	}
	vals = append(vals, 0)
	copy(vals[i+1:], vals[i:])
	vals[i] = doc
	*p = Postings{}
	for _, v := range vals {
		p.tail = append(p.tail, v)
		p.n++
		if len(p.tail) == postingsBlockLen {
			p.flushTail()
		}
	}
}

// AppendTo decodes every document onto dst and returns it. Nil-safe.
func (p *Postings) AppendTo(dst []uint32) []uint32 {
	if p == nil {
		return dst
	}
	off, prev := 0, uint32(0)
	for i := 0; i < len(p.skips)*postingsBlockLen; i++ {
		d, m := binary.Uvarint(p.enc[off:])
		off += m
		prev += uint32(d)
		dst = append(dst, prev)
	}
	return append(dst, p.tail...)
}

// Contains reports whether doc is in the list: a binary search over the
// skip table picks the one block whose range covers doc, and only that
// block's ≤ postingsBlockLen deltas are scanned. Nil-safe.
func (p *Postings) Contains(doc uint32) bool {
	if p == nil || p.n == 0 {
		return false
	}
	if len(p.tail) > 0 && doc >= p.tail[0] {
		i := sort.Search(len(p.tail), func(i int) bool { return p.tail[i] >= doc })
		return i < len(p.tail) && p.tail[i] == doc
	}
	i := sort.Search(len(p.skips), func(i int) bool { return p.skips[i].last >= doc })
	if i == len(p.skips) || doc < p.skips[i].first {
		return false
	}
	sk := p.skips[i]
	off, prev := int(sk.off), sk.prev
	for j := 0; j < postingsBlockLen; j++ {
		d, m := binary.Uvarint(p.enc[off:])
		off += m
		prev += uint32(d)
		if prev >= doc {
			return prev == doc
		}
	}
	return false
}

// appendWire appends the list's globally-chained delta stream to dst —
// exactly the per-document deltas WriteTo has always serialised, so the
// compressed in-memory layout leaves the wire format untouched.
func (p *Postings) appendWire(dst []byte) []byte {
	dst = append(dst, p.enc...)
	prev := uint32(0)
	if n := len(p.skips); n > 0 {
		prev = p.skips[n-1].last
	}
	var buf [binary.MaxVarintLen32]byte
	for _, v := range p.tail {
		dst = append(dst, buf[:binary.PutUvarint(buf[:], uint64(v-prev))]...)
		prev = v
	}
	return dst
}

// postingsIter iterates one list in ascending order with forward-only
// SeekGE: seeks past the current block binary-search the skip table
// (the galloping step), then scan at most one block's deltas.
type postingsIter struct {
	p    *Postings
	bi   int    // current block; == len(skips) means the tail
	pos  int    // documents consumed from the current block
	off  int    // byte offset of the next unread delta
	prev uint32 // last decoded value (valid when pos > 0)
	ti   int    // next tail position once bi passes the blocks
	cur  uint32
	has  bool
	done bool
}

func newPostingsIter(p *Postings) postingsIter { return postingsIter{p: p} }

// SeekGE positions the iterator at the first document ≥ v at or after
// the current position and returns it. Calls must be monotone in v
// relative to the value last returned; seeking at or below it returns
// the current document again without moving.
func (it *postingsIter) SeekGE(v uint32) (uint32, bool) {
	if it.done {
		return 0, false
	}
	if it.has && it.cur >= v {
		return it.cur, true
	}
	p := it.p
	for it.bi < len(p.skips) {
		sk := p.skips[it.bi]
		if v > sk.last {
			// Galloping jump: skip whole blocks via the skip table.
			lo := it.bi + 1
			it.bi = lo + sort.Search(len(p.skips)-lo, func(k int) bool {
				return p.skips[lo+k].last >= v
			})
			it.pos = 0
			continue
		}
		if it.pos == 0 {
			it.off, it.prev = int(sk.off), sk.prev
		}
		for it.pos < postingsBlockLen {
			d, m := binary.Uvarint(p.enc[it.off:])
			it.off += m
			it.prev += uint32(d)
			it.pos++
			if it.prev >= v {
				it.cur, it.has = it.prev, true
				return it.cur, true
			}
		}
		it.bi++
		it.pos = 0
	}
	lo := it.ti
	it.ti = lo + sort.Search(len(p.tail)-lo, func(k int) bool { return p.tail[lo+k] >= v })
	if it.ti < len(p.tail) {
		it.cur, it.has = p.tail[it.ti], true
		it.ti++
		return it.cur, true
	}
	it.done = true
	return 0, false
}

// Next returns the document after the one last returned (or the first).
func (it *postingsIter) Next() (uint32, bool) {
	if it.done {
		return 0, false
	}
	if !it.has {
		return it.SeekGE(0)
	}
	if it.cur == math.MaxUint32 {
		it.done = true
		return 0, false
	}
	return it.SeekGE(it.cur + 1)
}

// unionIter merges several postings lists into one ascending stream
// with SeekGE — the per-label "any expansion key matches" view that
// LookupIntersect leapfrogs over.
type unionIter struct {
	its   []postingsIter
	total int
}

func newUnionIter(lists []*Postings) *unionIter {
	u := &unionIter{its: make([]postingsIter, len(lists))}
	for i, p := range lists {
		u.its[i] = newPostingsIter(p)
		u.total += p.Len()
	}
	return u
}

// SeekGE returns the smallest document ≥ v across the merged lists.
// Like postingsIter.SeekGE, v must be monotone across calls.
func (u *unionIter) SeekGE(v uint32) (uint32, bool) {
	best, found := uint32(0), false
	for i := range u.its {
		if w, ok := u.its[i].SeekGE(v); ok && (!found || w < best) {
			best, found = w, true
		}
	}
	return best, found
}

// seeker is an ascending document stream with forward-only SeekGE: the
// shape of a leapfrog operand.
type seeker interface {
	SeekGE(v uint32) (uint32, bool)
}

// sliceIter is a seeker over an ascending slice. A seek gallops from
// the current position — doubling steps, then a binary search of the
// last stride — so a walk costs the distance covered, not log(len) per
// call.
type sliceIter[T ~uint32] struct{ s []T }

func (it *sliceIter[T]) SeekGE(v uint32) (uint32, bool) {
	s, hi := it.s, 1
	for hi < len(s) && uint32(s[hi-1]) < v {
		hi *= 2
	}
	lo := hi / 2 // s[lo-1] < v: the loop passed it
	hi = min(hi, len(s))
	it.s = s[lo+sort.Search(hi-lo, func(i int) bool { return uint32(s[lo+i]) >= v }):]
	if len(it.s) == 0 {
		return 0, false
	}
	return uint32(it.s[0]), true
}

// leapfrog appends to dst, in ascending order, the documents of lead
// that every stream of rest also holds, and stops once limit of them
// are found: each disagreement seeks the lead to the larger document,
// so the cost is bounded by the rarest operand with skip-table gallops
// through the others, never a full merge.
func leapfrog[T ~uint32](dst []T, lead seeker, rest []*unionIter, limit int) []T {
	v, ok := lead.SeekGE(0)
outer:
	for ok && limit > 0 {
		for _, g := range rest {
			w, o := g.SeekGE(v)
			if !o {
				break outer
			}
			if w != v {
				v, ok = lead.SeekGE(w)
				continue outer
			}
		}
		dst = append(dst, T(v))
		limit--
		if v == math.MaxUint32 {
			break
		}
		v, ok = lead.SeekGE(v + 1)
	}
	return dst
}

// expansionUnions returns one unionIter per label — the exact + token +
// thesaurus expansion Lookup applies to it — rarest first, or nil when
// there are no labels or one of them matches nothing (an empty
// intersection).
func (ix *Index) expansionUnions(labels []string) []*unionIter {
	var groups []*unionIter
	var sc Scratch
	for _, label := range labels {
		u := newUnionIter(ix.expansionPostings(&sc, label))
		if u.total == 0 {
			return nil
		}
		groups = append(groups, u)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].total < groups[j].total })
	return groups
}

// LookupIntersect returns the documents matched by every one of the
// labels, each at any precision level: the smallest label union leads a
// leapfrog over the others.
func (ix *Index) LookupIntersect(labels []string) []uint32 {
	groups := ix.expansionUnions(labels)
	if groups == nil {
		return nil
	}
	return leapfrog[uint32](nil, groups[0], groups[1:], math.MaxInt)
}

// IntersectAmong appends to dst the first limit elements of
// cands ∩ LookupIntersect(labels). cands must be ascending; they lead
// the leapfrog, so nothing past the limit-th common document is looked
// at. dst may be cands[:0]: a document is written no later than it is
// passed.
func IntersectAmong[T ~uint32](ix *Index, dst, cands []T, labels []string, limit int) []T {
	groups := ix.expansionUnions(labels)
	if groups == nil {
		return dst
	}
	return leapfrog(dst, &sliceIter[T]{cands}, groups, limit)
}

// LookupFrom appends to dst, ascending, the documents of Lookup(label)
// that are ≥ from: the expansion's lists merge through one SeekGE each
// per document returned, so the lists' prefix below from is skipped by
// the skip table, never decoded.
func LookupFrom[T ~uint32](ix *Index, dst []T, label string, from uint32) []T {
	u := newUnionIter(ix.expansionPostings(new(Scratch), label))
	for v, ok := u.SeekGE(from); ok; v, ok = u.SeekGE(v + 1) {
		dst = append(dst, T(v))
		if v == math.MaxUint32 {
			break
		}
	}
	return dst
}

// SigBit returns the signature bit of one index key: a single bit of a
// 64-bit fingerprint, chosen by FNV-1a. Per-path signatures OR the bits
// of every key the path is indexed under; probe masks OR the bits of
// every key a lookup would consult. A lookup can only match a document
// through a shared key, so sig&mask == 0 proves no match at any
// precision level — one-sided: collisions can fake a hit, never hide
// one.
func SigBit(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return 1 << (h & 63)
}

// SigBits returns the signature bits of one label: exactly the bits of
// the keys Add indexes it under (the normalised exact key plus its
// multi-character tokens), so deriving signatures from the posting maps
// and computing them from labels agree bit for bit.
func SigBits(label string) uint64 { return Analyse(label).Sig }

// ProbeMask returns the signature bits of every key a Lookup for label
// would consult under the thesaurus: the normalised exact key plus each
// token's expansions. If a document's signature shares no bit with the
// mask, Lookup(label) cannot return it.
func ProbeMask(thes *Thesaurus, label string) uint64 {
	m := SigBit(Normalize(label))
	consider := func(tok string) {
		if len(tok) < 2 {
			return
		}
		m |= SigBit(tok)
	}
	for _, tok := range Tokenize(label) {
		if thes != nil {
			for _, exp := range thes.Expand(tok) {
				consider(exp)
			}
		} else {
			consider(tok)
		}
	}
	return m
}
