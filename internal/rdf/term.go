// Package rdf implements the labelled directed graph data model used
// throughout the system: RDF terms, data graphs (Definition 1 of the
// paper) and query graphs (Definition 2), together with builders and
// navigation primitives shared by the path decomposition, alignment and
// query-answering layers.
//
// A data graph G = <N, E, LN, LE> is a labelled directed graph whose
// node labels come from U ∪ L (URIs and literals) and whose edge labels
// come from U. A query graph extends both label alphabets with variables.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the lexical category of a Term.
type TermKind uint8

const (
	// IRI identifies a Web resource (an element of the set U).
	IRI TermKind = iota
	// Literal is a data value (an element of the set L).
	Literal
	// Blank is an RDF blank node. Blank nodes behave as resources whose
	// label is scoped to the enclosing document.
	Blank
	// Var is a query variable (an element of VAR, written with a “?”
	// prefix). Variables may appear only in query graphs.
	Var
)

// String reports the conventional name of the kind.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	case Var:
		return "var"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term: the label of a node or an edge. Terms are
// immutable values and are comparable with ==; two terms are the same
// graph element exactly when they are equal.
type Term struct {
	// Kind is the lexical category of the term.
	Kind TermKind
	// Value is the IRI string, the literal lexical form, the blank node
	// identifier (without the leading “_:”), or the variable name
	// (without the leading “?”).
	Value string
	// Datatype is the datatype IRI of a typed literal, empty otherwise.
	Datatype string
	// Lang is the language tag of a language-tagged literal, empty
	// otherwise.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewTypedLiteral returns a literal term with a datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewBlank returns a blank-node term with the given local identifier.
func NewBlank(id string) Term { return Term{Kind: Blank, Value: id} }

// NewVar returns a variable term with the given name (no “?” prefix).
func NewVar(name string) Term { return Term{Kind: Var, Value: strings.TrimPrefix(name, "?")} }

// IsVar reports whether the term is a query variable.
func (t Term) IsVar() bool { return t.Kind == Var }

// IsConstant reports whether the term is a URI, literal or blank node,
// i.e. anything a variable can be substituted with.
func (t Term) IsConstant() bool { return t.Kind != Var }

// Label returns the label of the term as used by the similarity measure:
// the raw value for IRIs, literals and blanks, and “?name” for variables.
func (t Term) Label() string {
	if t.Kind == Var {
		return "?" + t.Value
	}
	return t.Value
}

// String renders the term in a compact N-Triples-like syntax, useful in
// error messages and test failures.
func (t Term) String() string { return string(t.Append(nil)) }

// Append appends the String form of t to dst.
func (t Term) Append(dst []byte) []byte {
	switch t.Kind {
	case IRI:
		return append(append(append(dst, '<'), t.Value...), '>')
	case Literal:
		dst = strconv.AppendQuote(dst, t.Value)
		switch {
		case t.Lang != "":
			dst = append(append(dst, '@'), t.Lang...)
		case t.Datatype != "":
			dst = append(append(append(dst, "^^<"...), t.Datatype...), '>')
		}
		return dst
	case Blank:
		return append(append(dst, "_:"...), t.Value...)
	case Var:
		return append(append(dst, '?'), t.Value...)
	default:
		return fmt.Appendf(dst, "<invalid term kind %d>", t.Kind)
	}
}

// Matches reports whether the term matches another under substitution
// semantics: a variable matches any constant, and constants match only
// equal constants. Matching is symmetric.
func (t Term) Matches(u Term) bool {
	if t.Kind == Var || u.Kind == Var {
		return true
	}
	return t == u
}

// Triple is a single RDF statement (subject, predicate, object).
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples-like syntax.
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// Valid reports whether the triple is well-formed for a data graph:
// the subject must be a resource, the predicate an IRI, and the object
// any constant. Variables are rejected (use ValidQuery for query
// triples).
func (t Triple) Valid() error {
	switch t.S.Kind {
	case IRI, Blank:
	default:
		return fmt.Errorf("rdf: subject %s must be an IRI or blank node", t.S)
	}
	if t.P.Kind != IRI {
		return fmt.Errorf("rdf: predicate %s must be an IRI", t.P)
	}
	switch t.O.Kind {
	case IRI, Blank, Literal:
	default:
		return fmt.Errorf("rdf: object %s must be a constant", t.O)
	}
	return nil
}

// ValidQuery reports whether the triple is well-formed for a query graph,
// where variables are additionally allowed in every position.
func (t Triple) ValidQuery() error {
	switch t.S.Kind {
	case IRI, Blank, Var:
	default:
		return fmt.Errorf("rdf: query subject %s must be an IRI, blank node or variable", t.S)
	}
	switch t.P.Kind {
	case IRI, Var:
	default:
		return fmt.Errorf("rdf: query predicate %s must be an IRI or variable", t.P)
	}
	return nil
}
