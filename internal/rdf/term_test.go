package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	cases := []struct {
		name string
		term Term
		kind TermKind
		str  string
	}{
		{"iri", NewIRI("http://ex.org/a"), IRI, "<http://ex.org/a>"},
		{"literal", NewLiteral("Health Care"), Literal, `"Health Care"`},
		{"typed", NewTypedLiteral("3", "http://www.w3.org/2001/XMLSchema#int"), Literal, `"3"^^<http://www.w3.org/2001/XMLSchema#int>`},
		{"lang", NewLangLiteral("ciao", "it"), Literal, `"ciao"@it`},
		{"escaped", NewLiteral("a\"b\\c\n\xff\u2028é"), Literal, `"a\"b\\c\n\xff\u2028é"`},
		{"blank", NewBlank("b0"), Blank, "_:b0"},
		{"var", NewVar("v1"), Var, "?v1"},
		{"var-prefixed", NewVar("?v1"), Var, "?v1"},
		{"invalid-kind", Term{Kind: 9, Value: "x"}, 9, "<invalid term kind 9>"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.term.Kind != c.kind {
				t.Errorf("kind = %v, want %v", c.term.Kind, c.kind)
			}
			if got := c.term.String(); got != c.str {
				t.Errorf("String() = %q, want %q", got, c.str)
			}
			if got := string(c.term.Append([]byte("x"))); got != "x"+c.str {
				t.Errorf("Append(x) = %q, want x%s", got, c.str)
			}
		})
	}
}

func TestTermKindString(t *testing.T) {
	for k, want := range map[TermKind]string{IRI: "iri", Literal: "literal", Blank: "blank", Var: "var"} {
		if got := k.String(); got != want {
			t.Errorf("TermKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := TermKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestTermLabel(t *testing.T) {
	if got := NewVar("x").Label(); got != "?x" {
		t.Errorf("var label = %q, want ?x", got)
	}
	if got := NewIRI("u").Label(); got != "u" {
		t.Errorf("iri label = %q, want u", got)
	}
	if got := NewLiteral("Male").Label(); got != "Male" {
		t.Errorf("literal label = %q, want Male", got)
	}
}

func TestTermMatches(t *testing.T) {
	a := NewIRI("a")
	b := NewIRI("b")
	v := NewVar("x")
	if !a.Matches(a) {
		t.Error("a should match itself")
	}
	if a.Matches(b) {
		t.Error("a should not match b")
	}
	if !v.Matches(a) || !a.Matches(v) {
		t.Error("variables should match any constant, symmetrically")
	}
	if !v.Matches(NewVar("y")) {
		t.Error("two variables match")
	}
	// A literal and an IRI with the same value are distinct terms.
	if NewLiteral("a").Matches(a) {
		t.Error("literal \"a\" should not match IRI <a>")
	}
}

func TestTermMatchesSymmetric(t *testing.T) {
	// Property: Matches is symmetric for arbitrary kinds/values.
	f := func(k1, k2 uint8, v1, v2 string) bool {
		a := Term{Kind: TermKind(k1 % 4), Value: v1}
		b := Term{Kind: TermKind(k2 % 4), Value: v2}
		return a.Matches(b) == b.Matches(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTripleValid(t *testing.T) {
	good := Triple{S: NewIRI("s"), P: NewIRI("p"), O: NewLiteral("o")}
	if err := good.Valid(); err != nil {
		t.Errorf("valid triple rejected: %v", err)
	}
	blankSubj := Triple{S: NewBlank("b"), P: NewIRI("p"), O: NewIRI("o")}
	if err := blankSubj.Valid(); err != nil {
		t.Errorf("blank subject rejected: %v", err)
	}
	bad := []Triple{
		{S: NewLiteral("s"), P: NewIRI("p"), O: NewIRI("o")},
		{S: NewVar("s"), P: NewIRI("p"), O: NewIRI("o")},
		{S: NewIRI("s"), P: NewLiteral("p"), O: NewIRI("o")},
		{S: NewIRI("s"), P: NewVar("p"), O: NewIRI("o")},
		{S: NewIRI("s"), P: NewIRI("p"), O: NewVar("o")},
	}
	for i, tr := range bad {
		if err := tr.Valid(); err == nil {
			t.Errorf("bad triple %d accepted: %v", i, tr)
		}
	}
}

func TestTripleValidQuery(t *testing.T) {
	good := []Triple{
		{S: NewVar("s"), P: NewIRI("p"), O: NewVar("o")},
		{S: NewIRI("s"), P: NewVar("p"), O: NewLiteral("o")},
	}
	for i, tr := range good {
		if err := tr.ValidQuery(); err != nil {
			t.Errorf("good query triple %d rejected: %v", i, err)
		}
	}
	bad := Triple{S: NewLiteral("s"), P: NewIRI("p"), O: NewIRI("o")}
	if err := bad.ValidQuery(); err == nil {
		t.Error("literal subject accepted in query triple")
	}
}

func TestTripleString(t *testing.T) {
	tr := Triple{S: NewIRI("s"), P: NewIRI("p"), O: NewLiteral("o")}
	want := `<s> <p> "o" .`
	if got := tr.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
