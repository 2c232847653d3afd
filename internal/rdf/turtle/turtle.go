// Package turtle implements a reader for the Terse RDF Triple Language
// (Turtle) subset needed to load real-world RDF exports: @prefix/@base
// (and their SPARQL-style spellings), prefixed names, IRIs, blank
// nodes, plain/typed/language-tagged literals with escapes, numeric and
// boolean shorthand, the “a” keyword, predicate lists (;), object lists
// (,) and comments. Anonymous blank nodes ([...]) and RDF collections
// ((...)) are not supported and produce a clear error.
//
// The package is a document parser over the shared term scanner
// (internal/rdf/syntax): a document is directives and statements, a
// statement the scanner's Triples followed by '.'.
package turtle

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"sama/internal/rdf"
	"sama/internal/rdf/syntax"
)

// RDFType is the IRI the “a” keyword expands to.
const RDFType = syntax.RDFType

// ParseError is a Turtle syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("turtle: line %d: %s", e.Line, e.Msg)
}

// Parse reads a Turtle document and returns its triples in document
// order.
func Parse(r io.Reader) ([]rdf.Triple, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	text := string(src)
	out, err := document(syntax.New(text))
	var se *syntax.Error
	if errors.As(err, &se) {
		line, _ := syntax.Position(text, se.Offset)
		return nil, &ParseError{Line: line, Msg: se.Msg}
	}
	return out, err
}

func document(s *syntax.Scanner) ([]rdf.Triple, error) {
	var out []rdf.Triple
	for !s.EOF() {
		directive, err := s.AtDirective()
		if !directive {
			directive, err = s.Directive()
		}
		if !directive {
			if out, err = s.Triples(s.Term, out); err == nil {
				err = s.Expect('.')
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ParseString parses a Turtle document held in a string.
func ParseString(s string) ([]rdf.Triple, error) {
	return Parse(strings.NewReader(s))
}

// ReadGraph parses a Turtle document into a data graph.
func ReadGraph(r io.Reader) (*rdf.Graph, error) {
	ts, err := Parse(r)
	if err != nil {
		return nil, err
	}
	g := rdf.NewGraph()
	for _, t := range ts {
		g.AddTriple(t)
	}
	return g, nil
}
