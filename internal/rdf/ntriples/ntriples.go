// Package ntriples implements a reader and writer for the W3C N-Triples
// interchange format, the line-based serialisation used to load the
// benchmark datasets into the engines.
//
// The reader is a streaming line reader over the shared term scanner
// (internal/rdf/syntax): one statement per line, each term an IRIREF, a
// blank-node label or a double-quoted literal with its @language tag or
// ^^<datatype>, comments and blank lines skipped. The writer spells
// every term through the scanner's encoder, so what it writes the
// reader reads back to the same triples. Errors carry the offending
// line number.
package ntriples

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"sama/internal/rdf"
	"sama/internal/rdf/syntax"
)

// ParseError describes a syntax error at a specific line of the input.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// Reader parses N-Triples statements from an input stream.
type Reader struct {
	scan *bufio.Scanner
	s    *syntax.Scanner
	line int
}

// NewReader returns a Reader over r. Lines up to 1 MiB are supported.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	return &Reader{scan: sc, s: syntax.New("")}
}

// Next returns the next triple in the stream, io.EOF at end of input, or
// a *ParseError on malformed input.
func (r *Reader) Next() (rdf.Triple, error) {
	for r.scan.Scan() {
		r.line++
		r.s.Reset(r.scan.Text())
		if r.s.EOF() { // blank or comment-only line
			continue
		}
		t, err := r.statement()
		if err != nil {
			msg := err.Error()
			var se *syntax.Error
			if errors.As(err, &se) {
				msg = se.Msg
			}
			return rdf.Triple{}, &ParseError{Line: r.line, Msg: msg}
		}
		return t, nil
	}
	if err := r.scan.Err(); err != nil {
		return rdf.Triple{}, err
	}
	return rdf.Triple{}, io.EOF
}

// statement parses the line the scanner holds: subject predicate object
// '.', nothing after it but a comment, each term in a position a data
// graph admits.
func (r *Reader) statement() (t rdf.Triple, err error) {
	if t.S, err = r.term(); err != nil {
		return t, err
	}
	if t.P, err = r.term(); err != nil {
		return t, err
	}
	if t.O, err = r.term(); err != nil {
		return t, err
	}
	if err = r.s.Expect('.'); err != nil {
		return t, err
	}
	if !r.s.EOF() {
		return t, r.s.Expected("the end of the line")
	}
	return t, t.Valid()
}

func (r *Reader) term() (rdf.Term, error) {
	switch r.s.Peek() {
	case '<':
		iri, err := r.s.IRIRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	case '_':
		return r.s.BlankLabel()
	case '"':
		return r.s.Literal(r.s.IRIRef)
	}
	return rdf.Term{}, r.s.Expected("an IRI, a blank node or a literal")
}

// ReadAll parses every triple in r until EOF.
func ReadAll(r io.Reader) ([]rdf.Triple, error) {
	var out []rdf.Triple
	if err := rdf.Each(NewReader(r).Next, func(t rdf.Triple) { out = append(out, t) }); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseString parses an N-Triples document held in a string.
func ParseString(s string) ([]rdf.Triple, error) {
	return ReadAll(strings.NewReader(s))
}

// Writer serialises triples in N-Triples format.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	n   int
	err error
}

// NewWriter returns a Writer targeting w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write serialises one triple. Errors are sticky.
func (w *Writer) Write(t rdf.Triple) error {
	if w.err != nil {
		return w.err
	}
	if err := t.Valid(); err != nil {
		return err
	}
	b := append(syntax.AppendTerm(w.buf[:0], t.S), ' ')
	b = append(syntax.AppendTerm(b, t.P), ' ')
	b = append(syntax.AppendTerm(b, t.O), " .\n"...)
	w.buf = b
	_, w.err = w.w.Write(b)
	if w.err == nil {
		w.n++
	}
	return w.err
}

// WriteAll serialises all the triples and flushes.
func (w *Writer) WriteAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := w.Write(t); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Count returns the number of triples written so far.
func (w *Writer) Count() int { return w.n }

// Flush commits buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// WriteGraph serialises every edge of g to w in N-Triples format.
func WriteGraph(w io.Writer, g *rdf.Graph) error {
	nw := NewWriter(w)
	for _, t := range g.Triples() {
		if err := nw.Write(t); err != nil {
			return err
		}
	}
	return nw.Flush()
}
