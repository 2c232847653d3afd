package align

import "sama/internal/paths"

// AlignOps exposes the op-log seam to the external golden test
// (golden_test.go imports internal/core, which imports this package).
func (g *GreedyAligner) AlignOps(p, q paths.Path, log *[]Op) *Alignment {
	return g.alignOps(p, q, log)
}

// AlignTied aligns with no caller-supplied log — the engine's call —
// and reports whether the window tie-break recorded operations into
// the aligner's scratch, i.e. whether two anchors tied on cost.
func (g *GreedyAligner) AlignTied(p, q paths.Path) (*Alignment, bool) {
	g.tie.ops = g.tie.ops[:0]
	al := g.Align(p, q)
	return al, len(g.tie.ops) > 0
}

// PaperPairs are the worked examples of §4.3 and Figure 3 as (p, q)
// pairs: every Figure 3 data path against every query path.
func PaperPairs() [][2]paths.Path {
	var out [][2]paths.Path
	for _, q := range []paths.Path{q1, q2, q3} {
		for _, p := range []paths.Path{p1, p2, p7, p10, p17, p20} {
			out = append(out, [2]paths.Path{p, q})
		}
	}
	return out
}
