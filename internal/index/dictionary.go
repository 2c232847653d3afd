package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

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

// internPath appends to ids the IDs of p's terms in record order — the
// nodes, then the edges — interning each on first sight.
func (d *Dictionary) internPath(ids []uint32, p paths.Path) []uint32 {
	for _, n := range p.Nodes {
		ids = append(ids, d.ID(n))
	}
	for _, e := range p.Edges {
		ids = append(ids, d.ID(e))
	}
	return ids
}

// lookupPath is internPath for a path that must not intern: it appends
// p's term IDs to ids, or returns ids as given and false at the first
// term the dictionary does not hold.
func (d *Dictionary) lookupPath(ids []uint32, p paths.Path) ([]uint32, bool) {
	from := len(ids)
	for _, terms := range [2][]rdf.Term{p.Nodes, p.Edges} {
		for _, t := range terms {
			id, ok := d.ids[t]
			if !ok {
				return ids[:from], false
			}
			ids = append(ids, id)
		}
	}
	return ids, true
}

// appendRecord appends the record of a path whose terms interned to ids
// (2n−1 of them, see internPath): the node count n, then every ID, all
// varints.
func appendRecord(buf []byte, ids []uint32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)+1)/2)
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

// EncodePathDict serialises a path's labels as varint dictionary IDs —
// node count, node IDs, edge IDs — interning terms d has not seen.
func EncodePathDict(p paths.Path, d *Dictionary) []byte {
	ids := d.internPath(make([]uint32, 0, len(p.Nodes)+len(p.Edges)), p)
	return appendRecord(make([]byte, 0, 1+2*len(ids)), ids)
}

// DecodePathDict deserialises a record written by EncodePathDict: one
// pass over the record and one allocation, a single term slice cut into
// nodes and edges, whose strings are the dictionary's.
func DecodePathDict(buf []byte, d *Dictionary) (paths.Path, error) {
	n, pos, err := recordHeader(buf)
	if err != nil {
		return paths.Path{}, err
	}
	terms := make([]rdf.Term, 2*n-1)
	if err := d.decodeRecord(buf, pos, len(terms), terms, nil); err != nil {
		return paths.Path{}, err
	}
	return pathOf(terms, n), nil
}

// recordHeader reads a record's node count n and returns it with the
// offset of its first ID.
func recordHeader(buf []byte) (n, pos int, err error) {
	count, pos := binary.Uvarint(buf)
	if pos <= 0 {
		return 0, 0, fmt.Errorf("index: truncated node count")
	}
	// An ID takes at least one byte, so a path of more than (rest+1)/2
	// nodes cannot be in the rest of the record: such a count is corrupt,
	// and rejected before it sizes an allocation.
	if count == 0 || count > uint64(len(buf)-pos+1)/2 {
		return 0, 0, fmt.Errorf("index: implausible node count %d in a %d-byte record", count, len(buf))
	}
	return int(count), pos, nil
}

// decodeRecord decodes the m = 2n−1 IDs of a record from pos on into
// terms and ids, each m long unless it is nil.
func (d *Dictionary) decodeRecord(buf []byte, pos, m int, terms []rdf.Term, ids []uint32) error {
	for i := range m {
		id, w := binary.Uvarint(buf[pos:])
		if w <= 0 {
			return fmt.Errorf("index: truncated varint at %d", pos)
		}
		// Compared as uint64: narrowed first, ID 2³²+3 would read as term 3.
		if id >= uint64(len(d.terms)) {
			return fmt.Errorf("index: dictionary id %d out of range (%d terms)", id, len(d.terms))
		}
		if terms != nil {
			terms[i] = d.terms[id]
		}
		if ids != nil {
			ids[i] = uint32(id)
		}
		pos += w
	}
	if pos != len(buf) {
		return fmt.Errorf("index: %d trailing bytes after path", len(buf)-pos)
	}
	return nil
}

// pathOf cuts the 2n−1 terms of a record into its nodes and edges.
func pathOf(terms []rdf.Term, n int) paths.Path {
	p := paths.Path{Nodes: terms[:n:n]}
	if n > 1 {
		p.Edges = terms[n:]
	}
	return p
}

var dictMagic = [4]byte{'S', 'D', 'C', '1'}

// WriteTo serialises the dictionary: the magic, the term count, then
// every term spelled out as appendTerm does.
func (d *Dictionary) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	buf := binary.AppendUvarint(append([]byte(nil), dictMagic[:]...), uint64(len(d.terms)))
	if err := write(buf); err != nil {
		return n, err
	}
	for _, t := range d.terms {
		buf = appendTerm(buf[:0], t)
		if err := write(buf); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadDictionary deserialises a dictionary written by WriteTo from a
// source of at most limit bytes (the metadata file's size): a term
// count or string length beyond what that many bytes can hold is
// corrupt, and is rejected before it sizes an allocation.
func ReadDictionary(r *bufio.Reader, limit int64) (*Dictionary, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("index: read dictionary magic: %w", err)
	}
	if magic != dictMagic {
		return nil, fmt.Errorf("index: bad dictionary magic %q", magic)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	// A term takes at least two bytes: its kind and a length.
	if count > uint64(limit)/2 {
		return nil, fmt.Errorf("index: implausible dictionary size %d in %d bytes", count, limit)
	}
	rs := func() (string, error) {
		l, err := binary.ReadUvarint(r)
		if err != nil {
			return "", err
		}
		if l > uint64(limit) {
			return "", fmt.Errorf("index: implausible dictionary string length %d in %d bytes", l, limit)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	d := NewDictionary()
	for i := uint64(0); i < count; i++ {
		kind, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		t := rdf.Term{Kind: rdf.TermKind(kind)}
		if t.Value, err = rs(); err != nil {
			return nil, err
		}
		if t.Kind == rdf.Literal {
			if t.Datatype, err = rs(); err != nil {
				return nil, err
			}
			if t.Lang, err = rs(); err != nil {
				return nil, err
			}
		}
		// A repeated term would take the first one's ID and shift every
		// later ID down by one.
		if d.ID(t) != uint32(i) {
			return nil, fmt.Errorf("index: dictionary term %d (%s) repeats an earlier one", i, t)
		}
	}
	return d, nil
}
