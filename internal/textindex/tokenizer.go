// Package textindex implements the IR layer the paper delegates to a
// Lucene Domain index embedded in HyperGraphDB (§6.1): an inverted index
// over node and edge labels with tokenisation and thesaurus expansion
// (the WordNet substitute), used to locate the data elements matching a
// query label.
package textindex

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// LocalName extracts the local part of an IRI-like label: the substring
// after the last '#' or '/', with a trailing '/' stripped first. Labels
// without either separator are returned unchanged.
func LocalName(label string) string {
	s := strings.TrimSuffix(label, "/")
	if i := strings.LastIndexByte(s, '#'); i >= 0 {
		return s[i+1:]
	}
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// Normalize lower-cases the local name of a label; the exact-match key
// of the index.
func Normalize(label string) string {
	return strings.ToLower(LocalName(label))
}

// Tokenize splits a label into lower-case tokens: the local name is
// broken at punctuation, whitespace, digit/letter boundaries and
// camelCase humps. "FullProfessor7" tokenises to ["full", "professor",
// "7"], "health_care" to ["health", "care"]. It runs for every constant
// of every query path, so it makes one pass and returns sub-slices of
// one lower-cased copy of the local name.
func Tokenize(label string) []string {
	s := LocalName(label)
	low := strings.ToLower(s)
	var buf [8]string // most labels have fewer tokens: one exact-size copy out
	tokens := buf[:0]
	// i walks s and j walks low in lock step: ToLower maps rune for
	// rune, but the lower-case form can differ in byte length (and an
	// invalid byte becomes a three-byte U+FFFD). start is the offset in
	// low of the token being read, -1 between tokens.
	start := -1
	flush := func(j int) {
		if start >= 0 {
			tokens = append(tokens, low[start:j])
			start = -1
		}
	}
	var prev rune
	for i, j := 0, 0; i < len(s); {
		r, w, lw := rune(s[i]), 1, 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
			_, lw = utf8.DecodeRuneInString(low[j:])
		}
		switch {
		case unicode.IsLetter(r):
			if start >= 0 {
				switch {
				case unicode.IsDigit(prev):
					// digit→letter boundary.
					flush(j)
				case unicode.IsUpper(r):
					// camelCase hump: upper after lower, or upper before
					// lower within an acronym run (HTTPServer → http,
					// server).
					next, _ := utf8.DecodeRuneInString(s[i+w:])
					if unicode.IsLower(prev) || (unicode.IsUpper(prev) && unicode.IsLower(next)) {
						flush(j)
					}
				}
			}
			if start < 0 {
				start = j
			}
		case unicode.IsDigit(r):
			if start >= 0 && !unicode.IsDigit(prev) {
				flush(j)
			}
			if start < 0 {
				start = j
			}
		default:
			flush(j)
		}
		prev = r
		i += w
		j += lw
	}
	flush(len(low))
	if len(tokens) == 0 {
		return nil
	}
	return slices.Clone(tokens)
}
