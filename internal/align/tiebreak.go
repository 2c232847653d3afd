package align

import (
	"slices"
	"strings"

	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/textindex"
)

// stem reduces an inflected token to a crude stem: enough to let
// “teaches” meet “teacher” and “attends” meet “attend” when breaking
// ties between equally-priced alignments. Deliberately lighter than a
// real stemmer — it only ever strips one common suffix.
func stem(tok string) string {
	for _, suf := range []string{"ing", "es", "ed", "er", "s"} {
		if len(tok) > len(suf)+2 && strings.HasSuffix(tok, suf) {
			return tok[:len(tok)-len(suf)]
		}
	}
	return tok
}

// queryStems holds the stemmed tokens of one query path's labels, each
// tokenised on first use: the window tie-break compares every mismatch
// of every tied window with its query label, and an aligner aligns many
// data paths against one query path.
type queryStems struct {
	q     paths.Path
	terms []rdf.Term
	stems [][]string
}

// use makes q the query path the cache holds stems for, dropping them
// when q is another one.
func (qs *queryStems) use(q paths.Path) {
	if !slices.Equal(qs.q.Nodes, q.Nodes) || !slices.Equal(qs.q.Edges, q.Edges) {
		*qs = queryStems{q: q, terms: qs.terms[:0], stems: qs.stems[:0]}
	}
}

// of returns the stems of label, one of the query path's labels.
func (qs *queryStems) of(label rdf.Term) []string {
	if i := slices.Index(qs.terms, label); i >= 0 {
		return qs.stems[i]
	}
	st := stems(label.Label())
	qs.terms = append(qs.terms, label)
	qs.stems = append(qs.stems, st)
	return st
}

// stems returns the stemmed tokens of a label.
func stems(label string) []string {
	toks := textindex.Tokenize(label)
	for i, tok := range toks {
		toks[i] = stem(tok)
	}
	return toks
}

// tokenRelated reports whether the data label p shares a stemmed token
// with the query label whose stems are qStems.
func tokenRelated(qStems []string, p rdf.Term) bool {
	for _, tok := range textindex.Tokenize(p.Label()) {
		if slices.Contains(qStems, stem(tok)) {
			return true
		}
	}
	return false
}

// windowAffinity scores how semantically close the mismatched elements
// of an alignment's operation sequence are to their query counterparts: one point per mismatch whose
// labels share a stemmed token. Equal-cost window anchorings are ranked
// by this — aligning “teaches” against “teacherOf” (related) beats
// aligning it against “type” (unrelated) even though λ prices both as
// one edge mismatch. qs holds the query path's stems.
func windowAffinity(ops []Op, qs *queryStems) int {
	score := 0
	for _, op := range ops {
		switch op.Kind {
		case OpEdgeMismatch, OpNodeMismatch:
			if tokenRelated(qs.of(op.Q), op.P) {
				score++
			}
		}
	}
	return score
}
