// Package sparql implements a parser for the Basic Graph Pattern subset
// of SPARQL used by the evaluation workloads: PREFIX and BASE
// declarations, SELECT projections, WHERE blocks of triple patterns
// (with “;” and “,” property/object lists and the “a” keyword), and
// LIMIT. The parse result is an rdf.QueryGraph ready for the Sama engine
// and the baseline matchers.
//
// Terms, directives and property lists are scanned by the shared term
// scanner (internal/rdf/syntax), so a term means in a query what it
// means in a Turtle or N-Triples file; this package adds variables and
// the query's own keywords.
package sparql

import (
	"errors"
	"fmt"
	"strconv"

	"sama/internal/rdf"
	"sama/internal/rdf/syntax"
)

// RDFType is the IRI the “a” keyword expands to.
const RDFType = syntax.RDFType

// Query is a parsed SPARQL query: a projection, a basic graph pattern
// (as an rdf.QueryGraph), and an optional LIMIT.
type Query struct {
	// Select lists the projected variable names, or is nil for SELECT *.
	Select []string
	// Distinct reports whether DISTINCT was requested.
	Distinct bool
	// Pattern is the basic graph pattern as a query graph.
	Pattern *rdf.QueryGraph
	// Triples is the pattern in textual order, one entry per triple
	// pattern (useful to the baseline matchers).
	Triples []rdf.Triple
	// Limit is the LIMIT value, or 0 when absent.
	Limit int
	// Prefixes holds the PREFIX declarations in force.
	Prefixes map[string]string
}

// Error is a SPARQL syntax error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("sparql: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses the SPARQL source text.
func Parse(src string) (*Query, error) {
	q, err := query(syntax.New(src))
	var se *syntax.Error
	if errors.As(err, &se) {
		line, col := syntax.Position(src, se.Offset)
		return nil, &Error{Line: line, Col: col, Msg: se.Msg}
	}
	return q, err
}

// MustParse is Parse but panics on error; for tests and fixed workloads.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

func isVarStart(c byte) bool { return c == '?' || c == '$' }

func query(s *syntax.Scanner) (*Query, error) {
	for {
		if directive, err := s.Directive(); err != nil {
			return nil, err
		} else if !directive {
			break
		}
	}
	q := &Query{Prefixes: s.Prefixes()}
	// A pattern term is the scanner's Turtle term or a variable.
	term := func() (rdf.Term, error) {
		if isVarStart(s.Peek()) {
			return s.Var()
		}
		return s.Term()
	}
	if !s.Keyword("SELECT") {
		return nil, s.Expected("SELECT")
	}
	if q.Distinct = s.Keyword("DISTINCT"); !q.Distinct {
		s.Keyword("REDUCED")
	}
	if !s.Eat('*') {
		for isVarStart(s.Peek()) {
			v, err := s.Var()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, v.Value)
		}
		if q.Select == nil {
			return nil, s.Expected("'*' or variables after SELECT")
		}
	}
	s.Keyword("WHERE")
	if err := s.Expect('{'); err != nil {
		return nil, err
	}
	for !s.Eat('}') {
		var err error
		if q.Triples, err = s.Triples(term, q.Triples); err != nil {
			return nil, err
		}
		if !s.Eat('.') && s.Peek() != '}' {
			return nil, s.Expected("'.' or '}'")
		}
	}
	for s.Keyword("LIMIT") {
		n, err := s.Number()
		if err != nil {
			return nil, err
		}
		if q.Limit, err = strconv.Atoi(n.Value); err != nil || q.Limit < 0 {
			return nil, s.Errf(s.Offset()-len(n.Value), "bad LIMIT value %q", n.Value)
		}
	}
	if !s.EOF() {
		return nil, s.Expected("LIMIT or the end of the query")
	}
	if len(q.Triples) == 0 {
		return nil, s.Errf(0, "empty graph pattern")
	}
	pattern, err := rdf.NewQueryGraphFromTriples(q.Triples)
	if err != nil {
		return nil, s.Errf(0, "%v", err)
	}
	q.Pattern = pattern
	for _, v := range q.Select {
		if !pattern.HasVar(v) {
			return nil, s.Errf(0, "projected variable ?%s not in pattern", v)
		}
	}
	return q, nil
}
