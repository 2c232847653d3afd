package textindex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// postingsBlockLen is the number of documents per compressed block. 64
// keeps a block's delta scan within one cache line or two while the
// skip table stays ~1.5% of the decoded size.
const postingsBlockLen = 64

// A full block is stored in one of two forms, named by its first byte.
// blockDeltas is the documents' deltas, each from the one before (the
// first from the previous block's last), as uvarints. blockBitmap is the
// first document's delta and last−first as uvarints, then a bitmap of
// last−first+1 bits, least significant first, whose bit i says whether
// first+i is in the block. flushTail picks the shorter form.
const (
	blockDeltas = 0
	blockBitmap = 1
)

// postingsSkip is one skip-pointer entry: where block i's bytes start
// (its form byte) and which document range it covers. prev is the last
// document of the preceding block (0 for the first), i.e. the delta
// base, so a block can be decoded without touching its predecessors.
type postingsSkip struct {
	prev  uint32
	first uint32
	last  uint32
	off   uint32
}

// Postings is a sorted, deduplicated document list stored as blocks of
// deltas or bitmaps with a skip table, plus a small uncompressed append
// tail. Membership tests binary-search the skip table and read one
// block; iteration supports SeekGE for galloping intersection. The
// zero value is an empty list.
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

// Add appends doc, which must not be below the last document added:
// O(1) amortised on the tail. Adding the last document again is a
// no-op; a lower one panics. Every writer adds in ascending order —
// paths commit in ID order, and ReadFrom reads a list in order.
func (p *Postings) Add(doc uint32) {
	if p.n > 0 {
		last := p.lastValue()
		if doc == last {
			return
		}
		if doc < last {
			panic(fmt.Sprintf("textindex: posting %d added after %d", doc, last))
		}
	}
	p.tail = append(p.tail, doc)
	p.n++
	if len(p.tail) == postingsBlockLen {
		p.flushTail()
	}
}

// flushTail compresses the full tail into one block, in whichever form
// is shorter; a tie keeps the deltas.
func (p *Postings) flushTail() {
	prev := uint32(0)
	if n := len(p.skips); n > 0 {
		prev = p.skips[n-1].last
	}
	first, last := p.tail[0], p.tail[len(p.tail)-1]
	p.skips = append(p.skips, postingsSkip{prev: prev, first: first, last: last, off: uint32(len(p.enc))})
	deltas, d := 1, prev
	for _, v := range p.tail {
		deltas += uvarintLen(v - d)
		d = v
	}
	span := last - first
	if bitmap := 1 + uvarintLen(first-prev) + uvarintLen(span) + int(span/8) + 1; bitmap < deltas {
		p.enc = append(p.enc, blockBitmap)
		p.enc = binary.AppendUvarint(p.enc, uint64(first-prev))
		p.enc = binary.AppendUvarint(p.enc, uint64(span))
		bm := len(p.enc)
		p.enc = append(p.enc, make([]byte, span/8+1)...)
		for _, v := range p.tail {
			i := v - first
			p.enc[bm+int(i/8)] |= 1 << (i % 8)
		}
	} else {
		p.enc = append(p.enc, blockDeltas)
		p.enc = appendDeltas(p.enc, prev, p.tail)
	}
	p.tail = p.tail[:0]
}

func uvarintLen(v uint32) int { return (bits.Len32(v|1) + 6) / 7 }

// appendDeltas appends each document's delta from the one before it,
// the first's from prev, as uvarints.
func appendDeltas(dst []byte, prev uint32, docs []uint32) []byte {
	for _, v := range docs {
		dst = binary.AppendUvarint(dst, uint64(v-prev))
		prev = v
	}
	return dst
}

// bitmap returns the bitmap of block sk, or nil if the block is
// deltas.
func (p *Postings) bitmap(sk postingsSkip) []byte {
	off := int(sk.off)
	if p.enc[off] != blockBitmap {
		return nil
	}
	off += 1 + uvarintLen(sk.first-sk.prev) + uvarintLen(sk.last-sk.first)
	return p.enc[off : off+int((sk.last-sk.first)/8)+1]
}

// nextBit returns the index of the first bit of bm set at or after i,
// which the caller knows exists.
func nextBit(bm []byte, i uint32) uint32 {
	k := i / 8
	if b := bm[k] >> (i % 8); b != 0 {
		return i + uint32(bits.TrailingZeros8(b))
	}
	for k++; bm[k] == 0; k++ {
	}
	return 8*k + uint32(bits.TrailingZeros8(bm[k]))
}

// AppendTo decodes every document onto dst and returns it. Nil-safe.
func (p *Postings) AppendTo(dst []uint32) []uint32 {
	if p == nil {
		return dst
	}
	for _, sk := range p.skips {
		dst = p.appendBlock(dst, sk)
	}
	return append(dst, p.tail...)
}

func (p *Postings) appendBlock(dst []uint32, sk postingsSkip) []uint32 {
	if bm := p.bitmap(sk); bm != nil {
		return appendBitmap(dst, sk.first, bm)
	}
	off, prev := int(sk.off)+1, sk.prev
	for range postingsBlockLen {
		d, m := uint64(p.enc[off]), 1 // most deltas take one byte
		if d >= 0x80 {
			d, m = binary.Uvarint(p.enc[off:])
		}
		off, prev = off+m, prev+uint32(d)
		dst = append(dst, prev)
	}
	return dst
}

// appendBitmap appends first+i for every bit i set in bm, eight bytes
// at a time.
func appendBitmap(dst []uint32, first uint32, bm []byte) []uint32 {
	base := first
	for len(bm) >= 8 {
		for w := binary.LittleEndian.Uint64(bm); w != 0; w &= w - 1 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
		}
		bm, base = bm[8:], base+64
	}
	for _, b := range bm {
		for ; b != 0; b &= b - 1 {
			dst = append(dst, base+uint32(bits.TrailingZeros8(b)))
		}
		base += 8
	}
	return dst
}

// Contains reports whether doc is in the list: a binary search over the
// skip table picks the one block whose range covers doc, and only that
// block is read — one bit of a bitmap, or ≤ postingsBlockLen deltas.
// Nil-safe.
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
	if bm := p.bitmap(sk); bm != nil {
		j := doc - sk.first
		return bm[j/8]&(1<<(j%8)) != 0
	}
	off, prev := int(sk.off)+1, sk.prev
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

// appendWire appends the list as WriteTo stores it: the blocks as they
// are held, then the tail's deltas chained on from the last block.
func (p *Postings) appendWire(dst []byte) []byte {
	dst = append(dst, p.enc...)
	prev := uint32(0)
	if n := len(p.skips); n > 0 {
		prev = p.skips[n-1].last
	}
	return appendDeltas(dst, prev, p.tail)
}

// equal reports whether p and q hold the same documents: the blocks
// are a function of the documents, so equal lists are equal bytes.
func (p *Postings) equal(q *Postings) bool {
	return p.n == q.n && bytes.Equal(p.enc, q.enc) && slices.Equal(p.tail, q.tail)
}

// share returns a list of p's documents that shares p's blocks. Its
// blocks are capped at their length, so its first flush reallocates
// them and p's appends land past what it reads; its tail, which a
// flush rewrites in place, is its own. Adding to either list never
// changes the other.
func (p *Postings) share() *Postings {
	return &Postings{enc: slices.Clip(p.enc), skips: slices.Clip(p.skips), tail: slices.Clone(p.tail), n: p.n}
}

// listReader reads the lists of a stream written by WriteTo, refusing
// any spelling WriteTo would not have written.
type listReader struct {
	r   *bufio.Reader
	raw []byte // the current block's bytes as read
}

// readByte reads one byte and keeps it in raw.
func (lr *listReader) readByte() (byte, error) {
	b, err := lr.r.ReadByte()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	lr.raw = append(lr.raw, b)
	return b, err
}

// uvarint reads a uvarint in its shortest spelling.
func (lr *listReader) uvarint() (uint64, error) {
	var x uint64
	for i := 0; ; i++ {
		b, err := lr.readByte()
		if err != nil {
			return 0, err
		}
		if i > 0 && b == 0 || i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, errors.New("overlong varint")
		}
		x |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return x, nil
		}
	}
}

// doc reads a document's delta from prev: above prev unless it is the
// list's first document (p empty), and within uint32.
func (lr *listReader) doc(p *Postings, prev uint32) (uint32, error) {
	d, err := lr.uvarint()
	if err != nil {
		return 0, err
	}
	if d == 0 && p.n > 0 || d > uint64(math.MaxUint32-prev) {
		return 0, fmt.Errorf("document %d: delta %d from %d", p.n, d, prev)
	}
	return prev + uint32(d), nil
}

// list reads a list of n documents written out by appendWire: its full
// blocks, each of which must re-encode to the bytes read, then its tail.
func (lr *listReader) list(n uint64) (*Postings, error) {
	p := &Postings{}
	prev := uint32(0)
	for b := uint64(0); b < n/postingsBlockLen; b++ {
		lr.raw = lr.raw[:0]
		form, err := lr.readByte()
		if err != nil {
			return nil, err
		}
		off := len(p.enc)
		switch form {
		case blockDeltas:
			for range postingsBlockLen {
				if prev, err = lr.doc(p, prev); err != nil {
					return nil, err
				}
				p.Add(prev)
			}
		case blockBitmap:
			if err := lr.bitmapBlock(p, prev); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("block %d: form %d", b, form)
		}
		if !bytes.Equal(p.enc[off:], lr.raw) {
			return nil, fmt.Errorf("block %d is not in the form its documents take", b)
		}
		prev = p.lastValue()
	}
	lr.raw = lr.raw[:0]
	for range n % postingsBlockLen {
		var err error
		if prev, err = lr.doc(p, prev); err != nil {
			return nil, err
		}
		p.Add(prev)
	}
	return p, nil
}

// maxBlockBytes bounds a block's encoding: a tag and 64 uvarints of at
// most five bytes. A bitmap is only chosen when it is shorter than the
// deltas, so a longer one is refused before it is read.
const maxBlockBytes = 1 + postingsBlockLen*binary.MaxVarintLen32

// bitmapBlock reads the rest of a bitmap block after prev and adds its
// documents to p.
func (lr *listReader) bitmapBlock(p *Postings, prev uint32) error {
	first, err := lr.doc(p, prev)
	if err != nil {
		return err
	}
	span, err := lr.uvarint()
	if err != nil {
		return err
	}
	if span > uint64(math.MaxUint32-first) || span/8+1 > maxBlockBytes {
		return fmt.Errorf("bitmap over %d IDs from %d", span+1, first)
	}
	at := len(lr.raw)
	for range span/8 + 1 {
		if _, err := lr.readByte(); err != nil {
			return err
		}
	}
	if lr.raw[len(lr.raw)-1]>>(span%8+1) != 0 {
		return fmt.Errorf("bitmap sets a bit past document %d", first+uint32(span))
	}
	var docs [postingsBlockLen]uint32
	got := appendBitmap(docs[:0], first, lr.raw[at:])
	if len(got) != postingsBlockLen {
		return fmt.Errorf("bitmap holds %d documents", len(got))
	}
	for _, d := range got {
		p.Add(d)
	}
	return nil
}

// postingsIter iterates one list in ascending order with forward-only
// SeekGE: seeks past the current block binary-search the skip table
// (the galloping step), then read one block: a bit scan of a bitmap or
// at most one block's deltas.
type postingsIter struct {
	p    *Postings
	bi   int    // current block; == len(skips) means the tail
	pos  int    // documents consumed from a delta block; 0 = not entered
	off  int    // byte offset of the next unread delta
	prev uint32 // last decoded value (valid when pos > 0)
	bm   []byte // the current block's bitmap once entered, nil for deltas
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
			it.off, it.prev, it.bm = int(sk.off)+1, sk.prev, p.bitmap(sk)
		}
		if it.bm != nil {
			// v ≤ last, whose bit is set: the scan ends in the block.
			it.pos = 1
			it.cur, it.has = sk.first+nextBit(it.bm, max(v, sk.first)-sk.first), true
			return it.cur, true
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
// (KeySignatures) and computing them from labels agree bit for bit.
func SigBits(label string) uint64 { return Analyse(label).Sig }

// KeySignatures returns, for each document below n, the OR of SigBit
// over every key whose list holds it, walking each distinct list once;
// it refuses a list holding a document at or past n, naming its key.
func (ix *Index) KeySignatures(n int) ([]uint64, error) {
	var lists []*Postings
	var keyBits []uint64 // per list, the bits of its keys
	distinct := newWrittenLists()
	for _, m := range []map[string]*Postings{ix.exact, ix.tokens} {
		for key, p := range m {
			if p.n > 0 && uint64(p.lastValue()) >= uint64(n) {
				return nil, fmt.Errorf("textindex: key %q holds document %d of %d", key, p.lastValue(), n)
			}
			i := distinct.find(lists, p)
			if i < 0 {
				i, lists, keyBits = len(lists), append(lists, p), append(keyBits, 0)
			}
			keyBits[i] |= SigBit(key)
		}
	}
	sigs := make([]uint64, n)
	var block [postingsBlockLen]uint32
	for i, p := range lists {
		for _, sk := range p.skips {
			for _, doc := range p.appendBlock(block[:0], sk) {
				sigs[doc] |= keyBits[i]
			}
		}
		for _, doc := range p.tail {
			sigs[doc] |= keyBits[i]
		}
	}
	return sigs, nil
}

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
