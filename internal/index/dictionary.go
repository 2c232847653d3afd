package index

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"

	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/textindex"
)

// Dictionary interns RDF terms as dense uint32 IDs, the compression
// mechanism sketched as future work in the paper's §7: benchmark path
// sets repeat a small vocabulary of IRIs and literals millions of
// times, so a path is stored as a varint ID sequence, not as repeated
// strings, and a decoded path shares the dictionary's strings instead
// of allocating its own.
type Dictionary struct {
	ids   map[rdf.Term]uint32
	terms []rdf.Term
	// order is the IDs of terms[:len(order)] in the section's (Kind,
	// Value, Datatype, Lang) order, as last read or written: WriteTo
	// sorts only the terms interned since and merges them in.
	order []uint32
	// analysed[i] is textindex.Analyse(terms[i].Label()): a prefix of
	// terms, extended by analysedTerm as the write path asks, so a label
	// is normalised, tokenised and fingerprinted once per term rather
	// than once per path it occurs on. An index that is only read never
	// fills it.
	analysed []textindex.Analysed
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[rdf.Term]uint32)}
}

// ID interns the term, assigning the next ID on first sight.
func (d *Dictionary) ID(t rdf.Term) uint32 {
	if id, ok := d.ids[t]; ok {
		return id
	}
	id := uint32(len(d.terms))
	d.terms = append(d.terms, t)
	d.ids[t] = id
	return id
}

// Lookup returns the ID of a term already interned.
func (d *Dictionary) Lookup(t rdf.Term) (uint32, bool) {
	id, ok := d.ids[t]
	return id, ok
}

// Term returns the term with the given ID.
func (d *Dictionary) Term(id uint32) (rdf.Term, error) {
	if int(id) >= len(d.terms) {
		return rdf.Term{}, fmt.Errorf("index: dictionary id %d out of range (%d terms)", id, len(d.terms))
	}
	return d.terms[id], nil
}

// Len returns the number of interned terms.
func (d *Dictionary) Len() int { return len(d.terms) }

// truncate forgets every term interned after the dictionary held n: the
// rollback of an insert that failed while staging.
func (d *Dictionary) truncate(n int) {
	for _, t := range d.terms[n:] {
		delete(d.ids, t)
	}
	d.terms = d.terms[:n]
	if len(d.order) > n {
		d.order = slices.DeleteFunc(d.order, func(id uint32) bool { return id >= uint32(n) })
	}
	if len(d.analysed) > n {
		d.analysed = d.analysed[:n]
	}
}

// analysedTerm returns the analysed label of the term with the given ID.
func (d *Dictionary) analysedTerm(id uint32) *textindex.Analysed {
	for uint32(len(d.analysed)) <= id {
		d.analysed = append(d.analysed, textindex.Analyse(d.terms[len(d.analysed)].Label()))
	}
	return &d.analysed[id]
}

// appendRecord appends the record of a path whose terms interned to ids
// (2n−1 of them: the nodes, then the edges): every ID as a varint, laid
// out along the path — node, edge, node, …, node — so that the paths of
// one root, which the walk emits in pre-order, share byte prefixes that
// a page front-codes. The record holds no count: its varints are 2n−1.
func appendRecord(buf []byte, ids []uint32) []byte {
	n := (len(ids) + 1) / 2
	for i, id := range ids[:n] {
		buf = binary.AppendUvarint(buf, uint64(id))
		if i+1 < n {
			buf = binary.AppendUvarint(buf, uint64(ids[n+i]))
		}
	}
	return buf
}

// EncodePathDict serialises a path's labels as varint dictionary IDs —
// node, edge, node, …, node — interning terms d has not seen.
func EncodePathDict(p paths.Path, d *Dictionary) []byte {
	ids := make([]uint32, 0, len(p.Nodes)+len(p.Edges))
	for _, t := range p.Nodes {
		ids = append(ids, d.ID(t))
	}
	for _, t := range p.Edges {
		ids = append(ids, d.ID(t))
	}
	return appendRecord(make([]byte, 0, 1+2*len(ids)), ids)
}

// DecodePathDict deserialises a record written by EncodePathDict: one
// pass over the record and one allocation, a single term slice cut into
// nodes and edges, whose strings are the dictionary's.
func DecodePathDict(buf []byte, d *Dictionary) (paths.Path, error) {
	n, err := recordNodes(buf)
	if err != nil {
		return paths.Path{}, err
	}
	terms := make([]rdf.Term, 2*n-1)
	if err := d.decodeRecord(buf, n, terms, nil); err != nil {
		return paths.Path{}, err
	}
	return pathOf(terms, n), nil
}

// recordNodes returns a record's node count n: it counts the record's
// 2n−1 varints by their last bytes, so the count sizes no allocation
// beyond what the record's bytes can fill.
func recordNodes(buf []byte) (int, error) {
	m := 0
	for _, b := range buf {
		if b < 0x80 {
			m++
		}
	}
	if m%2 == 0 || buf[len(buf)-1] >= 0x80 {
		return 0, fmt.Errorf("index: a %d-byte record of %d whole varints is no path", len(buf), m)
	}
	return (m + 1) / 2, nil
}

// decodeRecord decodes the 2n−1 IDs of a record into terms and ids, each
// 2n−1 long unless it is nil, in the order nodes, then edges.
func (d *Dictionary) decodeRecord(buf []byte, n int, terms []rdf.Term, ids []uint32) error {
	pos := 0
	for j := range 2*n - 1 {
		id, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return fmt.Errorf("index: truncated or overlong varint at %d", pos)
		}
		// Compared as uint64: narrowed first, ID 2³²+3 would read as term 3.
		if id >= uint64(len(d.terms)) {
			return fmt.Errorf("index: dictionary id %d out of range (%d terms)", id, len(d.terms))
		}
		i := j / 2 // node j/2, or edge j/2 after the n nodes
		if j%2 == 1 {
			i += n
		}
		if terms != nil {
			terms[i] = d.terms[id]
		}
		if ids != nil {
			ids[i] = uint32(id)
		}
		pos += w
	}
	return nil // recordNodes counted every byte into one of the varints
}

// pathOf cuts the 2n−1 terms of a record into its nodes and edges.
func pathOf(terms []rdf.Term, n int) paths.Path {
	p := paths.Path{Nodes: terms[:n:n]}
	if n > 1 {
		p.Edges = terms[n:]
	}
	return p
}

var dictMagic = [4]byte{'S', 'D', 'C', '2'}

// dictBlock is the number of entries in a front-coded block of the
// dictionary section. A block's first entry spells its Value in full,
// so a reader can start at any block.
const dictBlock = 16

// compareTerms orders terms by (Kind, Value, Datatype, Lang), the order
// of the dictionary section.
func compareTerms(a, b rdf.Term) int {
	return cmp.Or(cmp.Compare(a.Kind, b.Kind), strings.Compare(a.Value, b.Value),
		strings.Compare(a.Datatype, b.Datatype), strings.Compare(a.Lang, b.Lang))
}

// sortTail merges the terms interned since the last WriteTo or
// ReadDictionary into d.order: only they are sorted, so a checkpoint
// after an insert never sorts the whole dictionary again.
func (d *Dictionary) sortTail() {
	n := len(d.order)
	tail := make([]uint32, 0, len(d.terms)-n)
	for id := n; id < len(d.terms); id++ {
		tail = append(tail, uint32(id))
	}
	less := func(a, b uint32) int { return compareTerms(d.terms[a], d.terms[b]) }
	slices.SortFunc(tail, less)
	// Merge from the back, into the room the tail makes.
	d.order = append(d.order, tail...)
	for i, j, k := n-1, len(tail)-1, len(d.order)-1; j >= 0; k-- {
		if i >= 0 && less(d.order[i], tail[j]) > 0 {
			d.order[k], i = d.order[i], i-1
		} else {
			d.order[k], j = tail[j], j-1
		}
	}
}

// WriteTo serialises the dictionary: the magic, the term count, then
// one entry per term in (Kind, Value, Datatype, Lang) order, front-coded
// in blocks of dictBlock. An entry is the term's kind; its Value —
// spelled in full at the start of a block, elsewhere as the length of
// the prefix it shares with the previous Value and the rest; a
// literal's datatype and language; and the term's ID. The order only
// shares prefixes: IDs stay as interned.
func (d *Dictionary) WriteTo(w io.Writer) (int64, error) {
	d.sortTail()
	bw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	buf := binary.AppendUvarint(append([]byte(nil), dictMagic[:]...), uint64(len(d.terms)))
	prev := ""
	for i, id := range d.order {
		t := d.terms[id]
		buf = append(buf, byte(t.Kind))
		shared := 0
		if i%dictBlock != 0 {
			for shared < min(len(prev), len(t.Value)) && prev[shared] == t.Value[shared] {
				shared++
			}
			buf = binary.AppendUvarint(buf, uint64(shared))
		}
		buf = appendString(buf, t.Value[shared:])
		if t.Kind == rdf.Literal {
			buf = appendString(appendString(buf, t.Datatype), t.Lang)
		}
		buf = binary.AppendUvarint(buf, uint64(id))
		if err := write(buf); err != nil {
			return n, err
		}
		buf, prev = buf[:0], t.Value
	}
	if err := write(buf); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadDictionary deserialises a dictionary written by WriteTo from a
// source of at most limit bytes (the metadata file's size): a term
// count or string length beyond what that many bytes can hold is
// corrupt, and is rejected before it sizes an allocation. It accepts
// only what WriteTo writes — keys strictly ascending, every ID below
// the count once, the longest shared prefix, the shortest varints — and
// names the entry it rejects.
func ReadDictionary(r *bufio.Reader, limit int64) (*Dictionary, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("index: read dictionary magic: %w", err)
	}
	if magic != dictMagic {
		return nil, fmt.Errorf("index: bad dictionary magic %q", magic)
	}
	m := &metaReader{r: r, limit: limit}
	// An entry takes at least three bytes: its kind, a length and its ID.
	count := m.count(3, "dictionary entry")
	d := &Dictionary{ids: make(map[rdf.Term]uint32, count), terms: make([]rdf.Term, count), order: make([]uint32, count)}
	seen := make([]bool, count)
	var prev rdf.Term
	for i := range d.order {
		var kind [1]byte
		m.read(kind[:])
		t, shared := rdf.Term{Kind: rdf.TermKind(kind[0])}, uint64(0)
		if i%dictBlock != 0 {
			if shared = m.uvarint(); shared > uint64(len(prev.Value)) {
				m.fail("shared prefix %d is longer than the previous value (%d bytes)", shared, len(prev.Value))
				shared = 0
			}
		}
		t.Value = m.str(prev.Value[:shared])
		if t.Kind == rdf.Literal {
			t.Datatype, t.Lang = m.str(""), m.str("")
		}
		id := m.uvarint()
		switch {
		case i%dictBlock != 0 && int(shared) < min(len(prev.Value), len(t.Value)) && prev.Value[shared] == t.Value[shared]:
			m.fail("shared prefix %d is not the longest", shared)
		case i > 0 && compareTerms(prev, t) >= 0:
			m.fail("%s is not above the previous key %s", t, prev)
		case id >= uint64(count) || seen[id]:
			m.fail("ID %d is repeated or out of range (%d terms)", id, count)
		}
		if m.err != nil {
			return nil, fmt.Errorf("index: dictionary entry %d: %w", i, m.err)
		}
		seen[id] = true
		d.terms[id], d.ids[t], d.order[i], prev = t, uint32(id), uint32(id), t
	}
	if m.err != nil {
		return nil, fmt.Errorf("index: dictionary: %w", m.err)
	}
	return d, nil
}
