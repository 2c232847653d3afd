package turtle

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sama/internal/rdf"
	"sama/internal/rdf/syntax"
)

func TestParseBasicDocument(t *testing.T) {
	doc := `
@prefix ex: <http://ex.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
# a comment
ex:alice a foaf:Person ;
    foaf:knows ex:bob , ex:carol ;
    foaf:name "Alice" ;
    foaf:age 32 .
ex:bob foaf:name "Bob"@en .
`
	ts, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := []rdf.Triple{
		{S: rdf.NewIRI("http://ex.org/alice"), P: rdf.NewIRI(RDFType), O: rdf.NewIRI("http://xmlns.com/foaf/0.1/Person")},
		{S: rdf.NewIRI("http://ex.org/alice"), P: rdf.NewIRI("http://xmlns.com/foaf/0.1/knows"), O: rdf.NewIRI("http://ex.org/bob")},
		{S: rdf.NewIRI("http://ex.org/alice"), P: rdf.NewIRI("http://xmlns.com/foaf/0.1/knows"), O: rdf.NewIRI("http://ex.org/carol")},
		{S: rdf.NewIRI("http://ex.org/alice"), P: rdf.NewIRI("http://xmlns.com/foaf/0.1/name"), O: rdf.NewLiteral("Alice")},
		{S: rdf.NewIRI("http://ex.org/alice"), P: rdf.NewIRI("http://xmlns.com/foaf/0.1/age"), O: rdf.NewTypedLiteral("32", syntax.XSDInteger)},
		{S: rdf.NewIRI("http://ex.org/bob"), P: rdf.NewIRI("http://xmlns.com/foaf/0.1/name"), O: rdf.NewLangLiteral("Bob", "en")},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("parsed:\n%v\nwant:\n%v", ts, want)
	}
}

func TestParseSPARQLStyleDirectives(t *testing.T) {
	doc := `
PREFIX ex: <http://ex.org/>
BASE <http://base.org/>
ex:a ex:p <rel> .
`
	ts, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].O != rdf.NewIRI("http://base.org/rel") {
		t.Errorf("relative IRI = %v", ts[0].O)
	}
}

func TestParseLiteralForms(t *testing.T) {
	doc := `
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:p1 'single quoted' .
ex:s ex:p2 "typed"^^xsd:string .
ex:s ex:p3 "typed-iri"^^<http://dt> .
ex:s ex:p4 3.14 .
ex:s ex:p5 -7 .
ex:s ex:p6 true .
ex:s ex:p7 false .
ex:s ex:p8 "esc\t\"x\"\nnl" .
`
	ts, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]rdf.Term, len(ts))
	for i, tr := range ts {
		objs[i] = tr.O
	}
	want := []rdf.Term{
		rdf.NewLiteral("single quoted"),
		rdf.NewTypedLiteral("typed", "http://www.w3.org/2001/XMLSchema#string"),
		rdf.NewTypedLiteral("typed-iri", "http://dt"),
		rdf.NewTypedLiteral("3.14", syntax.XSDDecimal),
		rdf.NewTypedLiteral("-7", syntax.XSDInteger),
		rdf.NewTypedLiteral("true", syntax.XSDBoolean),
		rdf.NewTypedLiteral("false", syntax.XSDBoolean),
		rdf.NewLiteral("esc\t\"x\"\nnl"),
	}
	if !reflect.DeepEqual(objs, want) {
		t.Errorf("objects = %v\nwant %v", objs, want)
	}
}

func TestParseBlankNodes(t *testing.T) {
	ts, err := ParseString(`@prefix ex: <http://ex.org/> .
_:b1 ex:p _:b2 .`)
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].S != rdf.NewBlank("b1") || ts[0].O != rdf.NewBlank("b2") {
		t.Errorf("blank nodes = %v", ts[0])
	}
}

func TestReadGraph(t *testing.T) {
	ts, err := ParseString(`
@prefix ex: <http://ex.org/> .
ex:a ex:p ex:b .
ex:b ex:p ex:c .
ex:a ex:p ex:b .
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := rdf.NewGraphFromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 3 || g.EdgeCount() != 2 {
		t.Errorf("graph = %v", g)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct{ name, doc string }{
		{"missing-dot", `@prefix ex: <http://e/> . ex:a ex:p ex:b`},
		{"undeclared-prefix", `zz:a zz:p zz:b .`},
		{"unterminated-iri", `<http://e ex:p ex:b .`},
		{"unterminated-literal", `@prefix ex: <http://e/> . ex:a ex:p "oops .`},
		{"literal-subject", `"s" <http://p> <http://o> .`},
		{"literal-predicate", `@prefix ex: <http://e/> . ex:a "p" ex:b .`},
		{"anon-blank", `@prefix ex: <http://e/> . ex:a ex:p [ ex:q ex:r ] .`},
		{"collection", `@prefix ex: <http://e/> . ex:a ex:p (1 2 3) .`},
		{"bad-escape", `@prefix ex: <http://e/> . ex:a ex:p "a\qb" .`},
		{"empty-blank", `_: <http://p> <http://o> .`},
		{"empty-lang", `@prefix ex: <http://e/> . ex:a ex:p "x"@ .`},
		{"newline-in-literal", "@prefix ex: <http://e/> .\nex:a ex:p \"two\nlines\" ."},
		{"number-subject", `12 <http://p> <http://o> .`},
		{"prefix-no-iri", `@prefix ex: nope .`},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseString(c.doc); err == nil {
				t.Errorf("accepted %q", c.doc)
			}
		})
	}
}

func TestParseErrorLine(t *testing.T) {
	_, err := ParseString("@prefix ex: <http://e/> .\nex:a ex:p zz:b .")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error %T: %v", err, err)
	}
	if pe.Line != 2 {
		t.Errorf("line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	ts, err := ParseString(`@prefix ex: <http://e/> .
ex:a ex:p ex:b ; .`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 {
		t.Errorf("triples = %d", len(ts))
	}
}

func TestParseUnicodeEscapes(t *testing.T) {
	ts, err := ParseString(`@prefix ex: <http://e/> . ex:a ex:p "ABC" .`)
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].O.Value != "ABC" {
		t.Errorf("unescaped = %q", ts[0].O.Value)
	}
}

func TestParseLocalNameWithDots(t *testing.T) {
	ts, err := ParseString(`@prefix ex: <http://e/> . ex:a.b ex:p ex:c .`)
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].S != rdf.NewIRI("http://e/a.b") {
		t.Errorf("dotted local name = %v", ts[0].S)
	}
}

// FuzzParseTurtle: the parser never panics, every triple it emits is a
// valid data triple, and an error names a line of the input.
func FuzzParseTurtle(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		ts, err := ParseString(doc)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) || pe.Line < 1 || pe.Line > strings.Count(doc, "\n")+1 {
				t.Fatalf("error %v (%T) names no line of the input", err, err)
			}
			return
		}
		for _, tr := range ts {
			if err := tr.Valid(); err != nil {
				t.Fatalf("emitted %v: %v", tr, err)
			}
		}
	})
}
