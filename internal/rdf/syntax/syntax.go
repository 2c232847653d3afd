// Package syntax is the one scanner under the three RDF surface
// syntaxes this module reads — N-Triples, Turtle and the SPARQL basic
// graph pattern subset — and the one term encoder under the N-Triples
// writer. It owns every production the three grammars share: IRIREF
// with \u/\U decoding and BASE resolution, blank-node labels, quoted
// strings and their escapes, language tags, ^^ datatypes, numbers,
// booleans, prefixed names, variables, whitespace and comments, the
// PREFIX/BASE directives in both spellings and the subject
// predicate-object list with its “;”, “,” and “a” shorthands.
//
// A front-end's grammar is the set of primitives it calls: N-Triples
// calls IRIRef, BlankLabel and Literal; Turtle calls Term, Triples and
// both directive spellings; SPARQL adds Var and Keyword. None of them
// scans a term itself, so a spelling two formats admit cannot mean two
// different terms. Errors carry a byte offset; Position turns it into
// the line and column a front-end reports.
package syntax

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"sama/internal/rdf"
)

// RDFType is the IRI the “a” keyword expands to.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// Datatypes of the bare numeric and boolean literals.
const (
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
)

// Error is a syntax error at a byte offset of the scanned text.
type Error struct {
	Offset int
	Msg    string
}

func (e *Error) Error() string { return fmt.Sprintf("offset %d: %s", e.Offset, e.Msg) }

// Position returns the 1-based line and byte column of offset off in src.
func Position(src string, off int) (line, col int) {
	off = min(off, len(src))
	return 1 + strings.Count(src[:off], "\n"), off - strings.LastIndexByte(src[:off], '\n')
}

// Scanner reads terms from one source text; Reset points it at another
// while keeping the declared base and prefixes.
type Scanner struct {
	src      string
	pos      int
	base     string
	prefixes map[string]string
}

// New returns a Scanner over src.
func New(src string) *Scanner { return &Scanner{src: src, prefixes: map[string]string{}} }

// Reset restarts the scanner at the beginning of src.
func (s *Scanner) Reset(src string) { s.src, s.pos = src, 0 }

// Offset returns the byte offset of the scan position.
func (s *Scanner) Offset() int { return s.pos }

// Prefixes returns the prefix declarations in force.
func (s *Scanner) Prefixes() map[string]string { return s.prefixes }

// Errf builds an Error at byte offset off.
func (s *Scanner) Errf(off int, format string, args ...any) *Error {
	return &Error{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

func (s *Scanner) skip() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		case '#':
			if nl := strings.IndexByte(s.src[s.pos:], '\n'); nl >= 0 {
				s.pos += nl
			} else {
				s.pos = len(s.src)
			}
		default:
			return
		}
	}
}

// EOF skips whitespace and comments and reports whether the input ends.
func (s *Scanner) EOF() bool {
	s.skip()
	return s.pos >= len(s.src)
}

// Peek skips whitespace and comments and returns the next byte without
// consuming it, 0 at the end of the input.
func (s *Scanner) Peek() byte {
	if s.EOF() {
		return 0
	}
	return s.src[s.pos]
}

// Eat consumes the punctuation byte c if it is next.
func (s *Scanner) Eat(c byte) bool {
	if s.Peek() != c {
		return false
	}
	s.pos++
	return true
}

// Expect consumes c or reports what stands in its place.
func (s *Scanner) Expect(c byte) error {
	if !s.Eat(c) {
		return s.Expected(strconv.Quote(string(c)))
	}
	return nil
}

// Expected builds the error for a missing production: it names what
// the grammar wants at the scan position and quotes what is there.
func (s *Scanner) Expected(what string) *Error {
	return s.Errf(s.pos, "expected %s, found %s", what, s.found())
}

// found quotes the start of the next token for an error message.
func (s *Scanner) found() string {
	if s.EOF() {
		return "end of input"
	}
	rest := s.src[s.pos:]
	if i := strings.IndexAny(rest, " \t\r\n"); i >= 0 {
		rest = rest[:i]
	}
	if len(rest) > 20 {
		rest = rest[:20] + "…"
	}
	return strconv.Quote(rest)
}

func isNameRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || unicode.IsMark(r) || r == '_' || r == '-'
}

// nameEnd returns the end of the name starting at i: letters, digits,
// marks, '_' and '-', decoded as UTF-8 runes, plus any byte of inner
// that another name character follows (a local name may hold '.' and
// ':' but never ends in one).
func (s *Scanner) nameEnd(i int, inner string) int {
	for i < len(s.src) {
		r, w := utf8.DecodeRuneInString(s.src[i:])
		if !isNameRune(r) {
			if r >= utf8.RuneSelf || strings.IndexByte(inner, byte(r)) < 0 {
				break
			}
			if next, _ := utf8.DecodeRuneInString(s.src[i+1:]); !isNameRune(next) {
				break
			}
		}
		i += w
	}
	return i
}

// word consumes the bareword w at the scan position unless it is only
// the start of a longer name or a prefix; fold ignores case.
func (s *Scanner) word(w string, fold bool) bool {
	end := s.pos + len(w)
	if end > len(s.src) {
		return false
	}
	if got := s.src[s.pos:end]; got != w && !(fold && strings.EqualFold(got, w)) {
		return false
	}
	if end < len(s.src) && s.src[end] == ':' || s.nameEnd(end, "") != end {
		return false
	}
	s.pos = end
	return true
}

// Keyword consumes the keyword kw, written in any case, if it is next.
func (s *Scanner) Keyword(kw string) bool {
	s.skip()
	return s.word(kw, true)
}

// Directive consumes one declaration in the SPARQL spelling — PREFIX
// name: <iri> or BASE <iri>, no closing '.' — and reports whether one
// was there.
func (s *Scanner) Directive() (bool, error) {
	switch {
	case s.Keyword("PREFIX"):
		return true, s.prefixDecl()
	case s.Keyword("BASE"):
		return true, s.baseDecl()
	}
	return false, nil
}

// AtDirective is Directive for the Turtle spelling: @prefix name: <iri> .
// or @base <iri> .
func (s *Scanner) AtDirective() (bool, error) {
	if s.Peek() != '@' {
		return false, nil
	}
	at := s.pos
	s.pos++
	var err error
	switch {
	case s.word("prefix", false):
		err = s.prefixDecl()
	case s.word("base", false):
		err = s.baseDecl()
	default:
		err = s.Errf(at, "expected @prefix or @base, found %s", s.src[at:s.nameEnd(at+1, "")])
	}
	if err == nil {
		err = s.Expect('.')
	}
	return true, err
}

func (s *Scanner) prefixDecl() error {
	s.skip()
	colon := s.nameEnd(s.pos, ".")
	if colon >= len(s.src) || s.src[colon] != ':' {
		return s.Expected("a prefix name ending in ':'")
	}
	name := s.src[s.pos:colon]
	s.pos = colon + 1
	iri, err := s.IRIRef()
	if err != nil {
		return err
	}
	s.prefixes[name] = iri
	return nil
}

func (s *Scanner) baseDecl() error {
	iri, err := s.IRIRef()
	if err == nil {
		s.base = iri
	}
	return err
}

// IRIRef scans <…>, decoding \u and \U escapes, and resolves the result
// against the base in force.
func (s *Scanner) IRIRef() (string, error) {
	if s.Peek() != '<' {
		return "", s.Expected("an IRI in <…>")
	}
	iri, err := s.delimited('>', true)
	if err != nil || s.base == "" || hasScheme(iri) {
		return iri, err
	}
	return s.base + iri, nil
}

// hasScheme reports whether iri is absolute: it opens with an RFC 3986
// scheme and a colon.
func hasScheme(iri string) bool {
	for i := 0; i < len(iri); i++ {
		switch c := iri[i]; {
		case c == ':':
			return i > 0
		case c|0x20 >= 'a' && c|0x20 <= 'z':
		case i > 0 && (c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.'):
		default:
			return false
		}
	}
	return false
}

// The bytes delimited stops at. iriStops are the bytes IRIREF excludes
// raw — controls, space and <>"{}|^`\ — which AppendTerm writes as
// \u00XX; stringStops are the quotes, the backslash and the line breaks.
var iriStops, stringStops = byteSet("<>\"{}|^`\\", ' '+1), byteSet("\"'\\\n\r", 0)

// byteSet marks the bytes of chars and every byte below the given one.
func byteSet(chars string, below byte) (set [256]bool) {
	for c := byte(0); c < below; c++ {
		set[c] = true
	}
	for i := 0; i < len(chars); i++ {
		set[chars[i]] = true
	}
	return set
}

// delimited scans from the opening delimiter at the scan position to
// the byte that closes it and returns what stands between, escapes
// decoded. An IRI admits only \u and \U and none of the characters
// IRIREF excludes; a string admits every escape and no raw line break.
func (s *Scanner) delimited(closer byte, iri bool) (string, error) {
	stops, what := &stringStops, "literal"
	if iri {
		stops, what = &iriStops, "IRI"
	}
	var buf []byte // the decoded text so far, nil until the first escape
	run := s.pos + 1
	for i := run; i < len(s.src); i++ {
		c := s.src[i]
		switch {
		case !stops[c]:
		case c == closer:
			val := s.src[run:i]
			if buf != nil {
				val = string(append(buf, val...))
			}
			s.pos = i + 1
			return val, nil
		case c == '\\':
			r, next, err := s.unescape(i, iri)
			if err != nil {
				return "", err
			}
			buf = utf8.AppendRune(append(buf, s.src[run:i]...), r)
			i, run = next-1, next
		case !iri && (c == '"' || c == '\''): // the quote that did not open the string
		default:
			return "", s.Errf(i, "unterminated %s: illegal character %q", what, c)
		}
	}
	return "", s.Errf(s.pos, "unterminated %s", what)
}

// unescape decodes the escape sequence whose backslash is at i — \t \b
// \n \r \f \" \' \\ (unless uOnly), \uXXXX, \UXXXXXXXX — and returns the
// rune and the offset just past the sequence.
func (s *Scanner) unescape(i int, uOnly bool) (rune, int, error) {
	if i+1 >= len(s.src) {
		return 0, 0, s.Errf(i, "dangling backslash")
	}
	width := 0
	switch c := s.src[i+1]; c {
	case 'u':
		width = 4
	case 'U':
		width = 8
	default:
		if k := strings.IndexByte(`tbnrf"'\`, c); k >= 0 && !uOnly {
			return rune("\t\b\n\r\f\"'\\"[k]), i + 2, nil
		}
		return 0, 0, s.Errf(i, "unknown escape %q", s.src[i:i+2])
	}
	end := i + 2 + width
	if end > len(s.src) {
		return 0, 0, s.Errf(i, "truncated unicode escape")
	}
	v, err := strconv.ParseUint(s.src[i+2:end], 16, 32)
	if err != nil || !utf8.ValidRune(rune(v)) {
		return 0, 0, s.Errf(i, "escape %q is not a Unicode code point", s.src[i:end])
	}
	return rune(v), end, nil
}

// BlankLabel scans _:label.
func (s *Scanner) BlankLabel() (rdf.Term, error) {
	if !strings.HasPrefix(s.src[s.pos:], "_:") {
		return rdf.Term{}, s.Errf(s.pos, "malformed blank node: expected \"_:\"")
	}
	end := s.nameEnd(s.pos+2, ".")
	if end == s.pos+2 {
		return rdf.Term{}, s.Errf(s.pos, "empty blank node label")
	}
	t := rdf.NewBlank(s.src[s.pos+2 : end])
	s.pos = end
	return t, nil
}

// Literal scans a quoted string — the quote at the scan position, " or
// ', also closes it — and its optional @language tag or
// ^^datatype; datatype scans what the front-end admits after “^^”.
func (s *Scanner) Literal(datatype func() (string, error)) (rdf.Term, error) {
	lex, err := s.delimited(s.src[s.pos], false)
	if err != nil {
		return rdf.Term{}, err
	}
	switch rest := s.src[s.pos:]; {
	case strings.HasPrefix(rest, "@"):
		// [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*
		n := 1
		for n < len(rest) && (rest[n]|0x20 >= 'a' && rest[n]|0x20 <= 'z' ||
			n > 1 && (rest[n] == '-' || rest[n] >= '0' && rest[n] <= '9')) {
			n++
		}
		for rest[n-1] == '-' {
			n--
		}
		if n == 1 {
			return rdf.Term{}, s.Errf(s.pos, "empty language tag")
		}
		s.pos += n
		return rdf.NewLangLiteral(lex, rest[1:n]), nil
	case strings.HasPrefix(rest, "^^"):
		s.pos += 2
		dt, err := datatype()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, dt), nil
	}
	return rdf.NewLiteral(lex), nil
}

// Number scans [+-]? digits ('.' digits)? as an xsd:integer or
// xsd:decimal literal. A '.' no digit follows is left for the caller:
// it ends the statement.
func (s *Scanner) Number() (rdf.Term, error) {
	digits := func(i int) int {
		for i < len(s.src) && s.src[i] >= '0' && s.src[i] <= '9' {
			i++
		}
		return i
	}
	s.skip()
	i := s.pos
	if i < len(s.src) && (s.src[i] == '+' || s.src[i] == '-') {
		i++
	}
	end := digits(i)
	if end == i {
		return rdf.Term{}, s.Expected("a number")
	}
	dt := XSDInteger
	if frac := digits(end + 1); end < len(s.src) && s.src[end] == '.' && frac > end+1 {
		end, dt = frac, XSDDecimal
	}
	t := rdf.NewTypedLiteral(s.src[s.pos:end], dt)
	s.pos = end
	return t, nil
}

// IRI scans an IRIREF or a prefixed name and returns the IRI it denotes.
func (s *Scanner) IRI() (string, error) {
	if s.Peek() == '<' {
		return s.IRIRef()
	}
	colon := s.nameEnd(s.pos, ".")
	if colon >= len(s.src) || s.src[colon] != ':' {
		return "", s.Expected("an RDF term")
	}
	ns, ok := s.prefixes[s.src[s.pos:colon]]
	if !ok {
		return "", s.Errf(s.pos, "undeclared prefix %q", s.src[s.pos:colon])
	}
	end := s.nameEnd(colon+1, ".:")
	iri := ns + s.src[colon+1:end]
	s.pos = end
	return iri, nil
}

// Var scans ?name or $name.
func (s *Scanner) Var() (rdf.Term, error) {
	end := s.nameEnd(s.pos+1, "")
	if end == s.pos+1 {
		return rdf.Term{}, s.Errf(s.pos, "empty variable name")
	}
	t := rdf.NewVar(s.src[s.pos+1 : end])
	s.pos = end
	return t, nil
}

// Term scans one Turtle term: an IRIREF, a prefixed name, a blank-node
// label, a quoted literal, a number or a boolean.
func (s *Scanner) Term() (rdf.Term, error) {
	switch c := s.Peek(); {
	case c == '_':
		return s.BlankLabel()
	case c == '"' || c == '\'':
		return s.Literal(s.IRI)
	case c >= '0' && c <= '9' || c == '+' || c == '-':
		return s.Number()
	case c == '[':
		return rdf.Term{}, s.Errf(s.pos, "anonymous blank nodes are not supported")
	case c == '(':
		return rdf.Term{}, s.Errf(s.pos, "RDF collections are not supported")
	case s.word("true", false):
		return rdf.NewTypedLiteral("true", XSDBoolean), nil
	case s.word("false", false):
		return rdf.NewTypedLiteral("false", XSDBoolean), nil
	}
	iri, err := s.IRI()
	if err != nil {
		return rdf.Term{}, err
	}
	return rdf.NewIRI(iri), nil
}

// Triples scans a subject and its predicate-object list — “;” between
// predicates, “,” between objects, “a” for rdf:type, a trailing “;”
// allowed — and appends one triple per object to out. term is the
// front-end's term function; the statement's terminator is left for
// the caller.
func (s *Scanner) Triples(term func() (rdf.Term, error), out []rdf.Triple) ([]rdf.Triple, error) {
	s.skip()
	off := s.pos
	subj, err := term()
	if err != nil {
		return nil, err
	}
	if subj.Kind == rdf.Literal {
		return nil, s.Errf(off, "literal %s in subject position", subj)
	}
	for {
		var pred rdf.Term
		s.skip()
		off = s.pos
		if s.word("a", false) {
			pred = rdf.NewIRI(RDFType)
		} else if pred, err = term(); err != nil {
			return nil, err
		} else if pred.Kind != rdf.IRI && pred.Kind != rdf.Var {
			return nil, s.Errf(off, "predicate must be an IRI, found %s", pred)
		}
		for {
			obj, err := term()
			if err != nil {
				return nil, err
			}
			out = append(out, rdf.Triple{S: subj, P: pred, O: obj})
			if !s.Eat(',') {
				break
			}
		}
		if !s.Eat(';') {
			return out, nil
		}
		if c := s.Peek(); c == '.' || c == '}' || c == 0 {
			return out, nil
		}
	}
}

// AppendTerm appends t in N-Triples syntax: the one spelling of a term
// that IRIRef, BlankLabel and Literal read back to the same term.
func AppendTerm(dst []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		return append(appendEscaped(append(dst, '<'), t.Value, true), '>')
	case rdf.Blank:
		return append(append(dst, "_:"...), t.Value...)
	case rdf.Literal:
		dst = append(appendEscaped(append(dst, '"'), t.Value, false), '"')
		switch {
		case t.Lang != "":
			dst = append(append(dst, '@'), t.Lang...)
		case t.Datatype != "":
			dst = append(appendEscaped(append(dst, "^^<"...), t.Datatype, true), '>')
		}
		return dst
	default:
		return append(dst, t.String()...)
	}
}

// appendEscaped is the inverse of delimited: inside <…> every byte
// IRIREF excludes becomes \u00XX, inside "…" the quote, the backslash
// and the line breaks take their short escapes. All other bytes are
// copied as they are.
func appendEscaped(dst []byte, s string, iri bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case iri && iriStops[c]:
			dst = fmt.Appendf(dst, "\\u%04X", c)
		case iri:
			dst = append(dst, c)
		case c == '\\':
			dst = append(dst, `\\`...)
		case c == '"':
			dst = append(dst, `\"`...)
		case c == '\n':
			dst = append(dst, `\n`...)
		case c == '\r':
			dst = append(dst, `\r`...)
		case c == '\t':
			dst = append(dst, `\t`...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}
