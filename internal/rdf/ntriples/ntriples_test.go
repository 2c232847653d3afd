package ntriples

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sama/internal/rdf"
	"sama/internal/rdf/turtle"
)

func TestParseBasic(t *testing.T) {
	doc := `
# a comment
<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .

<http://ex.org/s> <http://ex.org/name> "Carla Bunes" .
_:b0 <http://ex.org/p> "42"^^<http://www.w3.org/2001/XMLSchema#int> .
<http://ex.org/s> <http://ex.org/label> "salute"@it .
`
	ts, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := []rdf.Triple{
		{S: rdf.NewIRI("http://ex.org/s"), P: rdf.NewIRI("http://ex.org/p"), O: rdf.NewIRI("http://ex.org/o")},
		{S: rdf.NewIRI("http://ex.org/s"), P: rdf.NewIRI("http://ex.org/name"), O: rdf.NewLiteral("Carla Bunes")},
		{S: rdf.NewBlank("b0"), P: rdf.NewIRI("http://ex.org/p"), O: rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#int")},
		{S: rdf.NewIRI("http://ex.org/s"), P: rdf.NewIRI("http://ex.org/label"), O: rdf.NewLangLiteral("salute", "it")},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("parsed %v\nwant %v", ts, want)
	}
}

func TestParseEscapes(t *testing.T) {
	doc := `<s> <p> "line\nbreak \"quoted\" tab\t back\\slash uA U\U00000042" .`
	ts, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := "line\nbreak \"quoted\" tab\t back\\slash uA UB"
	if got := ts[0].O.Value; got != want {
		t.Errorf("unescaped = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		name, doc string
	}{
		{"missing-dot", `<s> <p> <o>`},
		{"unterminated-iri", `<s <p> <o> .`},
		{"unterminated-literal", `<s> <p> "abc .`},
		{"garbage-term", `s <p> <o> .`},
		{"trailing", `<s> <p> <o> . extra`},
		{"truncated", `<s> <p>`},
		{"bad-escape", `<s> <p> "a\qb" .`},
		{"bad-hex", `<s> <p> "\uZZZZ" .`},
		{"truncated-unicode", `<s> <p> "\u00" .`},
		{"empty-lang", `<s> <p> "x"@ .`},
		{"bad-datatype", `<s> <p> "x"^^notairi .`},
		{"empty-blank", `_: <p> <o> .`},
		{"blank-no-colon", `_x <p> <o> .`},
		{"surrogate-escape", `<s> <p> "\uD800" .`},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.doc)
			if err == nil {
				t.Errorf("accepted malformed input %q", c.doc)
			}
			var pe *ParseError
			if !errorsAs(err, &pe) {
				t.Errorf("error %T is not a *ParseError", err)
			} else if pe.Line != 1 {
				t.Errorf("error line = %d, want 1", pe.Line)
			}
		})
	}
}

func errorsAs(err error, target **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*target = pe
	}
	return ok
}

func TestParseErrorLineNumber(t *testing.T) {
	doc := "<s> <p> <o> .\n<s> <p> bad .\n"
	_, err := ParseString(doc)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("err = %v (%T)", err, err)
	}
	if pe.Line != 2 {
		t.Errorf("line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestReaderNextEOF(t *testing.T) {
	r := NewReader(strings.NewReader("# only a comment\n"))
	_, err := r.Next()
	if err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	ts := []rdf.Triple{
		{S: rdf.NewIRI("http://ex.org/s"), P: rdf.NewIRI("p"), O: rdf.NewLiteral("tab\there \"q\" \\back\nnl")},
		{S: rdf.NewBlank("node1"), P: rdf.NewIRI("p"), O: rdf.NewTypedLiteral("5", "int")},
		{S: rdf.NewIRI("s"), P: rdf.NewIRI("p"), O: rdf.NewLangLiteral("hi", "en")},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteAll(ts); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d, want 3", w.Count())
	}
	back, err := ParseString(buf.String())
	if err != nil {
		t.Fatalf("reparse: %v\ndoc:\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(ts, back) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", back, ts)
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	w := NewWriter(io.Discard)
	err := w.Write(rdf.Triple{S: rdf.NewVar("x"), P: rdf.NewIRI("p"), O: rdf.NewIRI("o")})
	if err == nil {
		t.Error("variable triple accepted by writer")
	}
}

func TestReadGraph(t *testing.T) {
	doc := `<a> <p> <b> .
<b> <p> <c> .
<a> <p> <b> .
`
	g, err := rdf.ReadGraph(NewReader(strings.NewReader(doc)).Next)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 3 || g.EdgeCount() != 2 {
		t.Errorf("graph = %v, want 3 nodes 2 edges (dedup)", g)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: writing then parsing arbitrary literal values is lossless.
	f := func(lex string) bool {
		if !isValidUTF8NoControls(lex) {
			return true // skip inputs outside the serialisable range
		}
		tr := rdf.Triple{S: rdf.NewIRI("s"), P: rdf.NewIRI("p"), O: rdf.NewLiteral(lex)}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteAll([]rdf.Triple{tr}); err != nil {
			return false
		}
		back, err := ParseString(buf.String())
		if err != nil || len(back) != 1 {
			return false
		}
		return back[0].O.Value == lex
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func isValidUTF8NoControls(s string) bool {
	for _, r := range s {
		if r == '�' || (r < 0x20 && r != '\n' && r != '\r' && r != '\t') {
			return false
		}
	}
	return true
}

func TestWriteGraph(t *testing.T) {
	g := rdf.NewGraph()
	g.AddTriple(rdf.Triple{S: rdf.NewIRI("a"), P: rdf.NewIRI("p"), O: rdf.NewIRI("b")})
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "<a> <p> <b> .\n" {
		t.Errorf("WriteGraph = %q", got)
	}
}

func TestReadAllLargeInput(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		sb.WriteString("<s")
		sb.WriteString(strings.Repeat("x", i%7))
		sb.WriteString("> <p> <o> .\n")
	}
	ts, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1000 {
		t.Errorf("parsed %d, want 1000", len(ts))
	}
}

// FuzzParseNTriples: the reader never panics; a document it accepts
// survives the writer triple for triple, and Turtle — whose grammar
// contains N-Triples — reads it to the same triples.
func FuzzParseNTriples(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		ts, err := ParseString(doc)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteAll(ts); err != nil {
			t.Fatalf("accepted triples do not serialise: %v", err)
		}
		if back, err := ParseString(buf.String()); err != nil || !reflect.DeepEqual(back, ts) {
			t.Fatalf("read %v, wrote %q, read back %v (%v)", ts, buf.String(), back, err)
		}
		if ttl, err := turtle.ParseString(doc); err != nil || !reflect.DeepEqual(ttl, ts) {
			t.Fatalf("N-Triples read %v, Turtle read %v (%v)", ts, ttl, err)
		}
	})
}
