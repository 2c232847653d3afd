// Package index implements the disk-resident path index of §6.1: it
// stores (i) the labels of the data graph's vertices and edges for
// element-to-element matching, and (ii) every source-to-sink path, “since
// they bring information that might match the query”, so the engine can
// skip the expensive graph traversal at query time.
//
// The paper stores this structure in HyperGraphDB with an embedded
// Lucene Domain index and WordNet expansion; here the hypergraph is
// realised as a slotted-page record store (one record per path — the
// hyperedge connecting its elements, Figure 5), and the IR layer is
// internal/textindex. All path reads go through a buffer pool, giving
// the cold/warm cache behaviour of the Figure 6 experiments.
package index

import (
	"encoding/binary"
	"fmt"

	"sama/internal/paths"
	"sama/internal/rdf"
)

// appendUvarint appends v to buf as a varint.
func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(buf, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendTerm encodes one term.
func appendTerm(buf []byte, t rdf.Term) []byte {
	buf = append(buf, byte(t.Kind))
	buf = appendString(buf, t.Value)
	if t.Kind == rdf.Literal {
		buf = appendString(buf, t.Datatype)
		buf = appendString(buf, t.Lang)
	}
	return buf
}

// EncodePath serialises a path's labels as inline strings. No index
// stores this format: records are dictionary-interned (EncodePathDict).
// EncodePath and DecodePath stay exported only because the frozen
// benchmark harness (bench/trace.go, index.decode_ns_per_path) and
// FuzzDecodePath call them.
func EncodePath(p paths.Path) []byte {
	buf := make([]byte, 0, 16+len(p.Nodes)*24)
	buf = appendUvarint(buf, uint64(len(p.Nodes)))
	for _, n := range p.Nodes {
		buf = appendTerm(buf, n)
	}
	for _, e := range p.Edges {
		buf = appendTerm(buf, e)
	}
	return buf
}

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("index: truncated varint at %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) str() (string, error) {
	l, err := d.uvarint()
	if err != nil {
		return "", err
	}
	// Compared as uint64: a corrupt length can exceed int and wrap the
	// sum negative.
	if l > uint64(len(d.buf)-d.pos) {
		return "", fmt.Errorf("index: truncated string at %d", d.pos)
	}
	s := string(d.buf[d.pos : d.pos+int(l)])
	d.pos += int(l)
	return s, nil
}

func (d *decoder) term() (rdf.Term, error) {
	if d.pos >= len(d.buf) {
		return rdf.Term{}, fmt.Errorf("index: truncated term at %d", d.pos)
	}
	kind := rdf.TermKind(d.buf[d.pos])
	d.pos++
	val, err := d.str()
	if err != nil {
		return rdf.Term{}, err
	}
	t := rdf.Term{Kind: kind, Value: val}
	if kind == rdf.Literal {
		if t.Datatype, err = d.str(); err != nil {
			return rdf.Term{}, err
		}
		if t.Lang, err = d.str(); err != nil {
			return rdf.Term{}, err
		}
	}
	return t, nil
}

// DecodePath deserialises a path encoded by EncodePath.
func DecodePath(buf []byte) (paths.Path, error) {
	d := &decoder{buf: buf}
	n, err := d.uvarint()
	if err != nil {
		return paths.Path{}, err
	}
	// A term takes at least two bytes (kind, length), so a count beyond
	// the buffer is corrupt — rejected before it sizes an allocation.
	if n == 0 || n > uint64(len(buf)) {
		return paths.Path{}, fmt.Errorf("index: implausible node count %d", n)
	}
	p := paths.Path{Nodes: make([]rdf.Term, n)}
	if n > 1 {
		p.Edges = make([]rdf.Term, n-1)
	}
	for i := range p.Nodes {
		if p.Nodes[i], err = d.term(); err != nil {
			return paths.Path{}, err
		}
	}
	for i := range p.Edges {
		if p.Edges[i], err = d.term(); err != nil {
			return paths.Path{}, err
		}
	}
	if d.pos != len(buf) {
		return paths.Path{}, fmt.Errorf("index: %d trailing bytes after path", len(buf)-d.pos)
	}
	return p, nil
}
