package sparql

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sama/internal/rdf"
	"sama/internal/rdf/syntax"
)

func TestParseQ1(t *testing.T) {
	// The paper's Q1 over the GovTrack example.
	src := `
PREFIX gov: <http://govtrack.example.org/>
SELECT ?v1 ?v2 ?v3 WHERE {
  gov:CarlaBunes gov:sponsor ?v1 .
  ?v1 gov:aTo ?v2 .
  ?v2 gov:subject "Health Care" .
  ?v3 gov:sponsor ?v2 .
  ?v3 gov:gender "Male" .
}
`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Select, []string{"v1", "v2", "v3"}) {
		t.Errorf("Select = %v", q.Select)
	}
	if len(q.Triples) != 5 {
		t.Fatalf("triples = %d, want 5", len(q.Triples))
	}
	if q.Pattern.VarCount() != 3 {
		t.Errorf("pattern vars = %d, want 3", q.Pattern.VarCount())
	}
	want := rdf.Triple{
		S: rdf.NewIRI("http://govtrack.example.org/CarlaBunes"),
		P: rdf.NewIRI("http://govtrack.example.org/sponsor"),
		O: rdf.NewVar("v1"),
	}
	if q.Triples[0] != want {
		t.Errorf("first triple = %v, want %v", q.Triples[0], want)
	}
}

func TestParseSelectStarAndLimit(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { ?s ?p ?o } LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select != nil {
		t.Errorf("SELECT * should leave Select nil, got %v", q.Select)
	}
	if q.Limit != 10 {
		t.Errorf("Limit = %d, want 10", q.Limit)
	}
}

func TestParseDistinct(t *testing.T) {
	q, err := Parse(`SELECT DISTINCT ?s { ?s <p> <o> }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("Distinct not set")
	}
}

func TestParsePropertyAndObjectLists(t *testing.T) {
	src := `
PREFIX ex: <http://ex.org/>
SELECT ?x WHERE {
  ?x a ex:Person ;
     ex:knows ex:alice , ex:bob ;
     ex:age 42 .
}
`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Triples) != 4 {
		t.Fatalf("triples = %d, want 4\n%v", len(q.Triples), q.Triples)
	}
	if q.Triples[0].P.Value != RDFType {
		t.Errorf("'a' expanded to %q", q.Triples[0].P.Value)
	}
	if q.Triples[1].O != rdf.NewIRI("http://ex.org/alice") || q.Triples[2].O != rdf.NewIRI("http://ex.org/bob") {
		t.Errorf("object list wrong: %v, %v", q.Triples[1].O, q.Triples[2].O)
	}
	if q.Triples[3].O != rdf.NewTypedLiteral("42", syntax.XSDInteger) {
		t.Errorf("numeric literal = %v", q.Triples[3].O)
	}
}

func TestParseLiteralForms(t *testing.T) {
	src := `
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?x WHERE {
  ?x <p1> "plain" .
  ?x <p2> "tagged"@en .
  ?x <p3> "typed"^^<http://dt> .
  ?x <p4> "prefixed-typed"^^xsd:string .
  ?x <p5> 3.14 .
  ?x <p6> "esc\t\"q\"\nnl" .
}
`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]rdf.Term, len(q.Triples))
	for i, tr := range q.Triples {
		objs[i] = tr.O
	}
	want := []rdf.Term{
		rdf.NewLiteral("plain"),
		rdf.NewLangLiteral("tagged", "en"),
		rdf.NewTypedLiteral("typed", "http://dt"),
		rdf.NewTypedLiteral("prefixed-typed", "http://www.w3.org/2001/XMLSchema#string"),
		rdf.NewTypedLiteral("3.14", syntax.XSDDecimal),
		rdf.NewLiteral("esc\t\"q\"\nnl"),
	}
	if !reflect.DeepEqual(objs, want) {
		t.Errorf("objects = %v\nwant %v", objs, want)
	}
}

func TestParseVariablePredicate(t *testing.T) {
	// The paper's Q2 has a variable edge label.
	q, err := Parse(`SELECT ?v2 WHERE { ?v2 ?e1 "Health Care" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Pattern.HasVar("e1") {
		t.Error("edge variable missing from pattern")
	}
}

func TestParseComments(t *testing.T) {
	q, err := Parse("# header\nSELECT ?s { ?s <p> <o> # trailing\n }")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Triples) != 1 {
		t.Errorf("triples = %d", len(q.Triples))
	}
}

func TestParseDollarVariable(t *testing.T) {
	q, err := Parse(`SELECT $s WHERE { $s <p> <o> }`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Select, []string{"s"}) {
		t.Errorf("Select = %v", q.Select)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct{ name, src string }{
		{"empty", ``},
		{"no-select", `WHERE { ?s <p> <o> }`},
		{"empty-pattern", `SELECT * WHERE { }`},
		{"unterminated", `SELECT * WHERE { ?s <p> <o>`},
		{"undeclared-prefix", `SELECT * WHERE { ex:a <p> <o> }`},
		{"literal-predicate", `SELECT * WHERE { <s> "p" <o> }`},
		{"literal-subject", `SELECT * WHERE { "s" <p> <o> }`},
		{"projection-unbound", `SELECT ?zz WHERE { ?s <p> <o> }`},
		{"bad-limit", `SELECT * WHERE { ?s <p> <o> } LIMIT x`},
		{"trailing", `SELECT * WHERE { ?s <p> <o> } nonsense`},
		{"a-as-subject", `SELECT * WHERE { a <p> <o> }`},
		{"unterminated-iri", `SELECT * WHERE { <s <p> <o> }`},
		{"unterminated-literal", `SELECT * WHERE { <s> <p> "abc }`},
		{"empty-var", `SELECT ? WHERE { ?s <p> <o> }`},
		{"bad-escape", `SELECT * WHERE { <s> <p> "a\qb" }`},
		{"prefix-no-iri", `PREFIX ex: SELECT * WHERE { ?s <p> <o> }`},
		{"offset-unsupported", `SELECT * WHERE { ?s <p> <o> } OFFSET 5`},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Errorf("accepted malformed query %q", c.src)
			}
		})
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("SELECT *\nWHERE { <s> %%% }")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 2 {
		t.Errorf("line = %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "line 2") {
		t.Errorf("Error() = %q", se.Error())
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("not sparql")
}

// TestParseBase pins BASE to its W3C meaning: it resolves relative
// IRIREFs and declares no prefix.
func TestParseBase(t *testing.T) {
	q, err := Parse(`BASE <http://base.org/> PREFIX : <http://ex.org/> SELECT ?s WHERE { ?s <p> :o ; <http://abs.org/q> <ub:r> }`)
	if err != nil {
		t.Fatal(err)
	}
	want := []rdf.Triple{
		{S: rdf.NewVar("s"), P: rdf.NewIRI("http://base.org/p"), O: rdf.NewIRI("http://ex.org/o")},
		{S: rdf.NewVar("s"), P: rdf.NewIRI("http://abs.org/q"), O: rdf.NewIRI("ub:r")},
	}
	if !reflect.DeepEqual(q.Triples, want) {
		t.Errorf("triples = %v\nwant %v", q.Triples, want)
	}
	if _, err := Parse(`BASE <http://base.org/> SELECT ?s WHERE { ?s :p :o }`); err == nil {
		t.Error("BASE declared the empty prefix")
	}
}

// FuzzParseSPARQL: the parser never panics, every pattern triple is a
// valid query triple, and an error is positioned inside the input.
func FuzzParseSPARQL(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("error %v is a %T", err, err)
			}
			lines := strings.Split(src, "\n")
			if se.Line < 1 || se.Line > len(lines) || se.Col < 1 || se.Col > len(lines[se.Line-1])+1 {
				t.Fatalf("error %v is not positioned inside the input", err)
			}
			return
		}
		for _, tr := range q.Triples {
			if err := tr.ValidQuery(); err != nil {
				t.Fatalf("pattern triple %v: %v", tr, err)
			}
		}
	})
}
