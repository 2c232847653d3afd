package textindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"slices"
	"sort"
)

// Index is an inverted index from labels to document IDs (the caller
// decides what a document is — the path index stores path IDs). Lookups
// run at three precision levels: exact normalised label, token, and
// thesaurus-expanded token. Postings are held compressed (delta-varint
// blocks with skip pointers, see postings.go), so membership probes and
// intersections never decode more than one block per list. Index is not
// safe for concurrent mutation; concurrent lookups after construction
// are fine.
type Index struct {
	exact  map[string]*Postings
	tokens map[string]*Postings
	thes   *Thesaurus
	docs   int
}

// New returns an empty index using the given thesaurus for expanded
// lookups (nil disables expansion).
func New(thes *Thesaurus) *Index {
	return &Index{
		exact:  make(map[string]*Postings),
		tokens: make(map[string]*Postings),
		thes:   thes,
	}
}

// Analysed is everything indexing derives from one label. A caller that
// indexes the same label under many documents analyses it once and
// passes the result to AddAnalysed.
type Analysed struct {
	// Key is Normalize(label), the exact-match key.
	Key string
	// Tokens are the token keys: Tokenize(label) without the key itself
	// and without single-character tokens (the "B" of "B1432"), which
	// match far too widely to be useful and are indexed only via Key.
	Tokens []string
	// Sig ORs SigBit over Key and Tokens (see SigBits).
	Sig uint64
}

// Analyse normalises, tokenises and fingerprints a label.
func Analyse(label string) Analysed {
	a := Analysed{Key: Normalize(label)}
	a.Sig = SigBit(a.Key)
	toks := Tokenize(label)
	a.Tokens = toks[:0]
	for _, tok := range toks {
		if tok == a.Key || len(tok) < 2 {
			continue
		}
		a.Tokens = append(a.Tokens, tok)
		a.Sig |= SigBit(tok)
	}
	return a
}

// Add indexes the label under doc. The same (label, doc) pair may be
// added repeatedly; postings are deduplicated.
func (ix *Index) Add(label string, doc uint32) {
	a := Analyse(label)
	ix.AddAnalysed(&a, doc)
}

// AddAnalysed is Add for a label already analysed.
func (ix *Index) AddAnalysed(a *Analysed, doc uint32) {
	postingFor(ix.exact, a.Key).Add(doc)
	for _, tok := range a.Tokens {
		postingFor(ix.tokens, tok).Add(doc)
	}
	ix.docs++
}

// Lists returns the postings lists AddAnalysed adds a document to for a
// label analysed as a — its exact key's, then each token's — creating
// the missing ones. A caller that indexes one label under many documents
// resolves them once and adds through AddTo.
func (ix *Index) Lists(a *Analysed) []*Postings {
	lists := make([]*Postings, 0, 1+len(a.Tokens))
	lists = append(lists, postingFor(ix.exact, a.Key))
	for _, tok := range a.Tokens {
		lists = append(lists, postingFor(ix.tokens, tok))
	}
	return lists
}

// AddTo is AddAnalysed through the lists Lists returned for the label.
func (ix *Index) AddTo(lists []*Postings, doc uint32) {
	for _, p := range lists {
		p.Add(doc)
	}
	ix.docs++
}

func postingFor(m map[string]*Postings, key string) *Postings {
	p := m[key]
	if p == nil {
		p = &Postings{}
		m[key] = p
	}
	return p
}

// Scratch is the memory a lookup decodes and merges into: the decoded
// runs, the union and the merge heap. The zero value is ready; a caller
// that keeps one looks up without allocating once it has grown.
type Scratch struct {
	runs  [][]uint32 // decoded runs; capacities survive across lookups
	out   []uint32
	pos   []int
	heap  []int
	lists []*Postings
	seen  []string
}

// Lookup returns the postings matching the label at any precision level:
// the exact normalised label, each of its tokens, and each thesaurus
// expansion of those tokens. The result is sorted and deduplicated, and
// the caller owns it.
func (ix *Index) Lookup(label string) []uint32 {
	return ix.LookupScratch(new(Scratch), label)
}

// LookupScratch is Lookup decoding and merging into sc. The result
// aliases sc and is valid until sc's next use.
func (ix *Index) LookupScratch(sc *Scratch, label string) []uint32 {
	// Each postings list decodes already sorted, so the union is a
	// k-way merge of sorted runs rather than a concatenate-and-sort:
	// O(N log k) with k = matching lists instead of O(N log N) over the
	// combined length, which dominated retrieval on token-heavy labels.
	lists := ix.expansionPostings(sc, label)
	for len(sc.runs) < len(lists) {
		sc.runs = append(sc.runs, nil)
	}
	runs := sc.runs[:len(lists)]
	total := 0
	for i, p := range lists {
		runs[i] = p.AppendTo(runs[i][:0])
		total += p.Len()
	}
	return sc.unionRuns(runs, total)
}

// expansionPostings collects into sc the non-empty postings lists a
// lookup for label reads, each once: the exact normalised key, then for
// every considered token and thesaurus expansion its exact list (unless
// the token is that key again, as it is for every single-token label)
// and its token list.
func (ix *Index) expansionPostings(sc *Scratch, label string) []*Postings {
	lists, seen := sc.lists[:0], sc.seen[:0]
	add := func(p *Postings) {
		if p.Len() > 0 {
			lists = append(lists, p)
		}
	}
	key := Normalize(label)
	add(ix.exact[key])
	consider := func(tok string) {
		if len(tok) < 2 || slices.Contains(seen, tok) {
			return
		}
		seen = append(seen, tok)
		if tok != key {
			add(ix.exact[tok])
		}
		add(ix.tokens[tok])
	}
	for _, tok := range Tokenize(label) {
		if ix.thes != nil {
			for _, exp := range ix.thes.Expand(tok) {
				consider(exp)
			}
		} else {
			consider(tok)
		}
	}
	sc.lists, sc.seen = lists, seen
	return lists
}

// unionRuns merges ascending runs into one ascending deduplicated
// slice held by sc (a single run is returned as is). total is the
// combined run length, used to size the output.
func (sc *Scratch) unionRuns(runs [][]uint32, total int) []uint32 {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	out := slices.Grow(sc.out[:0], total)
	if len(runs) == 2 {
		sc.out = union2(out, runs[0], runs[1])
		return sc.out
	}
	// Binary min-heap of run indices ordered by each run's current
	// head; pos tracks how far each run has been consumed.
	pos := slices.Grow(sc.pos[:0], len(runs))[:len(runs)]
	clear(pos)
	h := sc.heap[:0]
	for i := range runs {
		h = append(h, i)
	}
	sc.pos, sc.heap = pos, h
	headLess := func(a, b int) bool { return runs[a][pos[a]] < runs[b][pos[b]] }
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			if r := l + 1; r < len(h) && headLess(h[r], h[l]) {
				l = r
			}
			if !headLess(h[l], h[i]) {
				return
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		r := h[0]
		v := runs[r][pos[r]]
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
		pos[r]++
		if pos[r] == len(runs[r]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	sc.out = out
	return out
}

// union2 is the two-run fast path of unionRuns, appending to out.
func union2(out, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// TermCount returns the number of distinct exact keys in the index.
func (ix *Index) TermCount() int { return len(ix.exact) }

// indexMagic identifies a serialised index stream. STX1 streams, whose
// lists were one delta stream each, are refused.
var indexMagic = [4]byte{'S', 'T', 'X', '2'}

// WriteTo serialises the index (not the thesaurus, which is code-level
// configuration) in a compact binary format: the exact keys, then the
// token keys, each sorted and followed by its list, then the document
// count. A list is a uvarint head: 2n for a list of n documents written
// out — its blocks as held (see flushTail), then the tail's deltas —
// and 2r+1 for a list equal to that of key r, the first key of the
// stream to hold it (keys count from 0 across both maps).
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	if err := write(indexMagic[:]); err != nil {
		return n, err
	}
	var buf []byte
	var lists []*Postings // every key's list, in stream order
	written := newWrittenLists()
	writeMap := func(m map[string]*Postings) error {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if err := write(binary.AppendUvarint(buf[:0], uint64(len(keys)))); err != nil {
			return err
		}
		for _, k := range keys {
			ps := m[k]
			buf = binary.AppendUvarint(buf[:0], uint64(len(k)))
			buf = append(buf, k...)
			if r := written.find(lists, ps); r >= 0 {
				buf = binary.AppendUvarint(buf, 2*uint64(r)+1)
			} else {
				buf = binary.AppendUvarint(buf, 2*uint64(ps.Len()))
				buf = append(buf, written.wire...)
			}
			lists = append(lists, ps)
			if err := write(buf); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeMap(ix.exact); err != nil {
		return n, err
	}
	if err := writeMap(ix.tokens); err != nil {
		return n, err
	}
	if err := write(binary.AppendUvarint(buf[:0], uint64(ix.docs))); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// writtenLists files lists by the hash of their bytes, so that a later
// equal list is found: a stream writes or reads it as a reference to the
// first, and KeySignatures walks it once.
type writtenLists struct {
	seed   maphash.Seed
	byHash map[uint64][]int // list numbers
	wire   []byte           // the bytes of the list last looked up
}

func newWrittenLists() *writtenLists {
	return &writtenLists{seed: maphash.MakeSeed(), byHash: map[uint64][]int{}}
}

// find returns the number of the filed list equal to p (lists holds
// the lists by number: a stream numbers them by key), or else files p
// as number len(lists), which the caller gives it, and returns −1.
func (w *writtenLists) find(lists []*Postings, p *Postings) int {
	w.wire = p.appendWire(w.wire[:0])
	h := maphash.Bytes(w.seed, w.wire)
	for _, r := range w.byHash[h] {
		if lists[r].equal(p) {
			return r
		}
	}
	w.byHash[h] = append(w.byHash[h], len(lists))
	return -1
}

// ReadFrom deserialises an index written by WriteTo from a source of at
// most limit bytes: a key count or key length beyond what that many
// bytes can hold is corrupt, and is rejected before it sizes an
// allocation. It accepts only what WriteTo writes — keys ascending,
// varints in their shortest spelling, each block in the form flushTail
// picks, and a reference for every list equal to an earlier key's, to
// the first such key — and names the key whose list it refuses. A
// referring key's list shares the blocks of the list it names (see
// share). The thesaurus is attached by the caller via New.
func ReadFrom(r io.Reader, thes *Thesaurus, limit int64) (*Index, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("textindex: read magic: %w", err)
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("textindex: bad magic %q", magic)
	}
	lr := listReader{r: br}
	var lists []*Postings // every key's list in stream order, nil for a reference
	written := newWrittenLists()
	readList := func() (*Postings, error) {
		lr.raw = lr.raw[:0]
		head, err := lr.uvarint()
		if err != nil {
			return nil, err
		}
		if head%2 == 1 {
			ref := head / 2
			if ref >= uint64(len(lists)) || lists[ref] == nil {
				return nil, fmt.Errorf("refers to key %d, which is no earlier list written out", ref)
			}
			lists = append(lists, nil)
			return lists[ref].share(), nil
		}
		ps, err := lr.list(head / 2)
		if err != nil {
			return nil, err
		}
		if r := written.find(lists, ps); r >= 0 {
			return nil, fmt.Errorf("writes out the list of key %d instead of referring to it", r)
		}
		lists = append(lists, ps)
		return ps, nil
	}
	readMap := func() (map[string]*Postings, error) {
		nkeys, err := lr.uvarint()
		if err != nil {
			return nil, fmt.Errorf("key count: %w", err)
		}
		// A key takes at least two bytes: its length and its list head.
		if nkeys > uint64(limit)/2 {
			return nil, fmt.Errorf("implausible key count %d in %d bytes", nkeys, limit)
		}
		m := make(map[string]*Postings, nkeys)
		prev := ""
		for i := uint64(0); i < nkeys; i++ {
			// Every refusal names the key, by number (see WriteTo) and,
			// once read, by name.
			num := len(lists)
			klen, err := lr.uvarint()
			if err != nil {
				return nil, fmt.Errorf("key %d: %w", num, err)
			}
			if klen > uint64(limit) {
				return nil, fmt.Errorf("key %d: implausible length %d in %d bytes", num, klen, limit)
			}
			kb := make([]byte, klen)
			if _, err := io.ReadFull(br, kb); err != nil {
				return nil, fmt.Errorf("key %d: %w", num, err)
			}
			key := string(kb)
			if i > 0 && key <= prev {
				return nil, fmt.Errorf("key %d %q: follows %q", num, key, prev)
			}
			prev = key
			if m[key], err = readList(); err != nil {
				return nil, fmt.Errorf("key %d %q: %w", num, key, err)
			}
		}
		return m, nil
	}
	ix := New(thes)
	var err error
	if ix.exact, err = readMap(); err != nil {
		return nil, fmt.Errorf("textindex: read exact map: %w", err)
	}
	if ix.tokens, err = readMap(); err != nil {
		return nil, fmt.Errorf("textindex: read token map: %w", err)
	}
	docs, err := lr.uvarint()
	if err != nil {
		return nil, fmt.Errorf("textindex: read doc count: %w", err)
	}
	ix.docs = int(docs)
	return ix, nil
}
