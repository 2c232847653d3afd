package syntax_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sama/internal/rdf"
	"sama/internal/rdf/ntriples"
	"sama/internal/rdf/syntax"
	"sama/internal/rdf/turtle"
	"sama/internal/sparql"
)

var updateCorpus = flag.Bool("update", false, "rewrite the three front-ends' fuzz seed corpora from the agreement table")

const (
	xsdInt  = "http://www.w3.org/2001/XMLSchema#int"
	subject = "http://a/s"
	pred    = "http://a/p"
)

// agreement is the one table of term spellings the three front-ends are
// held to. Each row is an object spelling (carrying its own '.' when
// the point is what a '.' right behind it means), an optional prologue
// in the PREFIX/BASE spelling Turtle and SPARQL share, the formats whose
// grammar admits it — n N-Triples, t Turtle, s a SPARQL pattern — and
// the term every admitting format must return. A format not listed must
// refuse the row with a positioned error.
var agreement = []struct {
	name     string
	prologue string
	obj      string
	in       string
	want     rdf.Term
}{
	// The eight divergences of the three hand-written scanners.
	{"1-u-escape-in-string", "", `"caf\u00e9"`, "nts", rdf.NewLiteral("café")},
	{"2-u-escape-in-iri", "", `<http://a/caf\u00e9>`, "nts", rdf.NewIRI("http://a/café")},
	{"3-integer-then-dot", "", `42.`, "ts", rdf.NewTypedLiteral("42", syntax.XSDInteger)},
	{"3-two-dots", "", `1.2.3`, "", rdf.Term{}},
	{"4-non-ascii-local-name", "PREFIX ex: <http://ex.org/>", `ex:café`, "ts", rdf.NewIRI("http://ex.org/café")},
	{"5-relative-iri-under-base", "BASE <http://base.org/>", `<rel>`, "ts", rdf.NewIRI("http://base.org/rel")},
	{"6-single-quotes", "", `'x'`, "ts", rdf.NewLiteral("x")},
	{"6-true", "", `true`, "ts", rdf.NewTypedLiteral("true", syntax.XSDBoolean)},
	{"6-false", "", `false`, "ts", rdf.NewTypedLiteral("false", syntax.XSDBoolean)},
	{"6-plus-sign", "", `+5`, "ts", rdf.NewTypedLiteral("+5", syntax.XSDInteger)},
	{"7-language-tag-then-dot", "", `"chat"@fr.`, "nts", rdf.NewLangLiteral("chat", "fr")},
	{"7-blank-label-then-dot", "", `_:b2.`, "nts", rdf.NewBlank("b2")},
	{"8-escaped-gt-in-iri", "", `<http://a/\u003Eb>`, "nts", rdf.NewIRI("http://a/>b")},

	{"plain-literal", "", `"Health Care"`, "nts", rdf.NewLiteral("Health Care")},
	{"typed-literal", "", `"5"^^<` + xsdInt + `>`, "nts", rdf.NewTypedLiteral("5", xsdInt)},
	{"typed-literal-prefixed", "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>", `"5"^^xsd:int`, "ts", rdf.NewTypedLiteral("5", xsdInt)},
	{"language-literal", "", `"hi"@en-US`, "nts", rdf.NewLangLiteral("hi", "en-US")},
	{"every-short-escape", "", `"\t\b\n\r\f\"\'\\"`, "nts", rdf.NewLiteral("\t\b\n\r\f\"'\\")},
	{"long-u-escape", "", `"\U0001F600"`, "nts", rdf.NewLiteral("😀")},
	{"raw-non-ascii", "", `"naïve 😀"`, "nts", rdf.NewLiteral("naïve 😀")},
	{"hash-in-literal", "", `"a # b"`, "nts", rdf.NewLiteral("a # b")},
	{"empty-literal", "", `""`, "nts", rdf.NewLiteral("")},
	{"blank-node", "", `_:b0`, "nts", rdf.NewBlank("b0")},
	{"blank-node-inner-dot", "", `_:a.b`, "nts", rdf.NewBlank("a.b")},
	{"absolute-iri", "", `<http://a/o>`, "nts", rdf.NewIRI("http://a/o")},
	{"relative-iri-no-base", "", `<sponsor>`, "nts", rdf.NewIRI("sponsor")},
	{"scheme-iri-under-base", "BASE <http://base.org/>", `<ub:advisor>`, "ts", rdf.NewIRI("ub:advisor")},
	{"dotted-local-name", "PREFIX ex: <http://ex.org/>", `ex:a.b`, "ts", rdf.NewIRI("http://ex.org/a.b")},
	{"local-name-then-dot", "PREFIX ex: <http://ex.org/>", `ex:a.`, "ts", rdf.NewIRI("http://ex.org/a")},
	{"empty-prefix", "PREFIX : <http://ex.org/>", `:o`, "ts", rdf.NewIRI("http://ex.org/o")},
	{"integer", "", `42`, "ts", rdf.NewTypedLiteral("42", syntax.XSDInteger)},
	{"negative-decimal", "", `-3.5`, "ts", rdf.NewTypedLiteral("-3.5", syntax.XSDDecimal)},
	{"question-variable", "", `?o`, "s", rdf.NewVar("o")},
	{"dollar-variable", "", `$o`, "s", rdf.NewVar("o")},

	{"unknown-escape", "", `"a\qb"`, "", rdf.Term{}},
	{"surrogate-escape", "", `"\uD800"`, "", rdf.Term{}},
	{"truncated-escape", "", `"\u00"`, "", rdf.Term{}},
	{"unterminated-literal", "", `"abc`, "", rdf.Term{}},
	{"line-break-in-literal", "", "\"two\nlines\"", "", rdf.Term{}},
	{"space-in-iri", "", `<http://a/b c>`, "", rdf.Term{}},
	{"short-escape-in-iri", "", `<http://a/\n>`, "", rdf.Term{}},
	{"unterminated-iri", "", `<http://a/o`, "", rdf.Term{}},
	{"empty-language-tag", "", `"x"@`, "", rdf.Term{}},
	{"datatype-not-an-iri", "", `"x"^^5`, "", rdf.Term{}},
	{"empty-blank-label", "", `_:`, "", rdf.Term{}},
	{"undeclared-prefix", "", `zz:a`, "", rdf.Term{}},
	{"bareword", "", `TRUE`, "", rdf.Term{}},
	{"a-as-object", "", `a`, "", rdf.Term{}},
}

// documents returns the row as a data document (N-Triples and Turtle
// read the same text) and as a SPARQL query around the same statement.
func documents(prologue, obj string) (data, query string) {
	stmt := "<" + subject + "> <" + pred + "> " + obj
	if !strings.HasSuffix(obj, ".") {
		stmt += " ."
	}
	if prologue != "" {
		prologue += "\n"
	}
	return prologue + stmt + "\n", prologue + "SELECT * WHERE { " + stmt + " }"
}

// TestFrontEndsAgree feeds every row through N-Triples, Turtle and a
// SPARQL pattern. Wherever a grammar admits the spelling the front-end
// returns exactly the row's term; otherwise an error positioned inside
// the input. N-Triples ⊂ Turtle ⊂ SPARQL patterns holds row by row, and
// a triple N-Triples accepted survives the writer.
func TestFrontEndsAgree(t *testing.T) {
	for _, row := range agreement {
		t.Run(row.name, func(t *testing.T) {
			data, query := documents(row.prologue, row.obj)
			if strings.Contains(row.in, "n") && !strings.Contains(row.in, "t") ||
				strings.Contains(row.in, "t") && !strings.Contains(row.in, "s") {
				t.Fatalf("row admits %q: N-Triples ⊂ Turtle ⊂ SPARQL must hold", row.in)
			}
			want := []rdf.Triple{{S: rdf.NewIRI(subject), P: rdf.NewIRI(pred), O: row.want}}
			lines := strings.Count(data, "\n") + 1

			check := func(format string, got []rdf.Triple, err error, line, col int) {
				t.Helper()
				if strings.Contains(row.in, format[:1]) {
					if err != nil {
						t.Errorf("%s refused %q: %v", format, row.obj, err)
					} else if len(got) != 1 || got[0] != want[0] {
						t.Errorf("%s read %q as %v, want %v", format, row.obj, got, want)
					}
					return
				}
				if err == nil {
					t.Errorf("%s accepted %q as %v", format, row.obj, got)
				} else if line < 1 || line > lines || col < 1 {
					t.Errorf("%s error %q is not positioned inside the input (line %d col %d)", format, err, line, col)
				}
			}

			nt, err := ntriples.ParseString(data)
			var ne *ntriples.ParseError
			if err != nil && !errors.As(err, &ne) {
				t.Fatalf("ntriples error %T: %v", err, err)
			} else if err != nil {
				check("ntriples", nt, err, ne.Line, 1)
			} else {
				check("ntriples", nt, nil, 0, 0)
				var buf bytes.Buffer
				if err := ntriples.NewWriter(&buf).WriteAll(nt); err != nil {
					t.Fatal(err)
				}
				if back, err := ntriples.ParseString(buf.String()); err != nil || len(back) != 1 || back[0] != nt[0] {
					t.Errorf("wrote %q, read back %v, %v; want %v", buf.String(), back, err, nt)
				}
			}

			ttl, err := turtle.ParseString(data)
			var te *turtle.ParseError
			if err != nil && !errors.As(err, &te) {
				t.Fatalf("turtle error %T: %v", err, err)
			} else if err != nil {
				check("turtle", ttl, err, te.Line, 1)
			} else {
				check("turtle", ttl, nil, 0, 0)
			}

			q, err := sparql.Parse(query)
			var se *sparql.Error
			if err != nil && !errors.As(err, &se) {
				t.Fatalf("sparql error %T: %v", err, err)
			} else if err != nil {
				check("sparql", nil, err, se.Line, se.Col)
			} else {
				check("sparql", q.Triples, nil, 0, 0)
			}
		})
	}
}

// TestSeedCorporaAreTheTable keeps the three fuzz targets' checked-in
// seed corpora equal to the agreement table's rows (-update rewrites
// them).
func TestSeedCorporaAreTheTable(t *testing.T) {
	for _, row := range agreement {
		data, query := documents(row.prologue, row.obj)
		for dir, doc := range map[string]string{
			"../ntriples/testdata/fuzz/FuzzParseNTriples": data,
			"../turtle/testdata/fuzz/FuzzParseTurtle":     data,
			"../../sparql/testdata/fuzz/FuzzParseSPARQL":  query,
		} {
			path := filepath.Join(dir, "agreement-"+row.name)
			entry := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", doc)
			if *updateCorpus {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != entry {
				t.Errorf("%s is not row %s of the table (run `go test ./internal/rdf/syntax -update`): %v", path, row.name, err)
			}
		}
	}
}
