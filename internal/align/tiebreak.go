package align

import (
	"strings"

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

// tokenRelated reports whether two labels share a stemmed token.
func tokenRelated(a, b rdf.Term) bool {
	at := map[string]bool{}
	for _, tok := range textindex.Tokenize(a.Label()) {
		at[stem(tok)] = true
	}
	for _, tok := range textindex.Tokenize(b.Label()) {
		if at[stem(tok)] {
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
// one edge mismatch.
func windowAffinity(ops []Op) int {
	score := 0
	for _, op := range ops {
		switch op.Kind {
		case OpEdgeMismatch, OpNodeMismatch:
			if tokenRelated(op.Q, op.P) {
				score++
			}
		}
	}
	return score
}
