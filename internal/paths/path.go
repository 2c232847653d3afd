// Package paths implements the path decomposition of §3.2: a path is a
// sequence of labels from a source to a sink of a data or query graph
// (Definition 5). The package provides depth-first path enumeration
// with explosion budgets, streamed root by root, hub promotion
// for sourceless graphs, and the node-intersection primitive χ used by
// the conformity component of the similarity measure.
package paths

import (
	"slices"
	"strings"

	"sama/internal/rdf"
)

// Path is one source-to-sink path. Nodes holds the node labels in order,
// Edges the edge labels between them (len(Edges) == len(Nodes)-1).
type Path struct {
	Nodes []rdf.Term
	Edges []rdf.Term
}

// Length returns the number of nodes in the path, matching the paper's
// convention (the example path JR-sponsor-A1589-aTo-B0532-subject-HC has
// length 4).
func (p Path) Length() int { return len(p.Nodes) }

// Source returns the first node label of the path.
func (p Path) Source() rdf.Term { return p.Nodes[0] }

// Sink returns the last node label of the path.
func (p Path) Sink() rdf.Term { return p.Nodes[len(p.Nodes)-1] }

// Position returns the 1-based position of the first node with the given
// label, or 0 if absent. (In the paper's example, A1589 has position 2.)
func (p Path) Position(label rdf.Term) int {
	for i, n := range p.Nodes {
		if n == label {
			return i + 1
		}
	}
	return 0
}

// ContainsNode reports whether the path contains a node with the label.
func (p Path) ContainsNode(label rdf.Term) bool { return p.Position(label) > 0 }

// ContainsLabelText reports whether any node or edge of the path has the
// given label text (Term.Label). Used by the clustering step when the
// query sink is a variable and matching falls back to the first constant.
func (p Path) ContainsLabelText(text string) bool {
	for _, n := range p.Nodes {
		if n.Label() == text {
			return true
		}
	}
	for _, e := range p.Edges {
		if e.Label() == text {
			return true
		}
	}
	return false
}

// String renders the path in the paper's “l1-e1-l2-…-lk” notation.
func (p Path) String() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteByte('-')
			b.WriteString(p.Edges[i-1].Label())
			b.WriteByte('-')
		}
		b.WriteString(n.Label())
	}
	return b.String()
}

// Key returns a canonical string identifying the path contents
// (including term kinds, so the literal "a" and the IRI <a> differ).
// Suitable as a map key for dedup.
func (p Path) Key() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			e := p.Edges[i-1]
			b.WriteByte(byte(e.Kind) + '0')
			b.WriteString(e.Label())
			b.WriteByte(0x1e)
		}
		b.WriteByte(byte(n.Kind) + '0')
		b.WriteString(n.Label())
		b.WriteByte(0x1f)
	}
	return b.String()
}

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	return Path{
		Nodes: append([]rdf.Term(nil), p.Nodes...),
		Edges: append([]rdf.Term(nil), p.Edges...),
	}
}

// Triples materialises the path back into its constituent statements,
// one per edge, from the labels alone.
func (p Path) Triples() []rdf.Triple {
	ts := make([]rdf.Triple, 0, len(p.Edges))
	for i, e := range p.Edges {
		ts = append(ts, rdf.Triple{S: p.Nodes[i], P: e, O: p.Nodes[i+1]})
	}
	return ts
}

// smallPathNodes bounds the linear-scan fast path of CommonNodes: when
// both paths have at most this many nodes, a nested scan beats building
// the membership map (no allocations, and real paths are short — the
// extractor's MaxLen defaults keep them well under this). The map path
// remains for longer synthetic paths.
const smallPathNodes = 8

// CommonNodes implements χ: the set of node labels shared by two paths,
// in first-path order. Variables are compared by name like any label.
func CommonNodes(a, b Path) []rdf.Term {
	if len(a.Nodes) <= smallPathNodes && len(b.Nodes) <= smallPathNodes {
		return commonNodesSmall(a, b)
	}
	inB := make(map[rdf.Term]struct{}, len(b.Nodes))
	for _, n := range b.Nodes {
		inB[n] = struct{}{}
	}
	var out []rdf.Term
	seen := make(map[rdf.Term]struct{})
	for _, n := range a.Nodes {
		if _, ok := inB[n]; ok {
			if _, dup := seen[n]; !dup {
				out = append(out, n)
				seen[n] = struct{}{}
			}
		}
	}
	return out
}

// commonNodesSmall is CommonNodes by nested linear scans: dedup by
// first occurrence within a, membership by scan of b. Output is
// element-for-element identical to the map path (first-path order,
// duplicates dropped); the only allocation is the result slice, and
// only when the intersection is non-empty.
func commonNodesSmall(a, b Path) []rdf.Term {
	var out []rdf.Term
	for i, n := range a.Nodes {
		dup := false
		for j := 0; j < i; j++ {
			if a.Nodes[j] == n {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for _, m := range b.Nodes {
			if m == n {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// FirstConstantFromEnd returns the last constant (non-variable) node
// label of the path scanning from the sink backwards, as used by the
// clustering step when the sink is a variable. ok is false when the path
// contains no constant node.
func (p Path) FirstConstantFromEnd() (rdf.Term, bool) {
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		if p.Nodes[i].IsConstant() {
			return p.Nodes[i], true
		}
	}
	return rdf.Term{}, false
}

// Vars returns the names of the path's variables in order of first
// occurrence, nodes then edges — the order in which the clustering step
// numbers the bindings of an alignment against the path.
func (p Path) Vars() []string {
	var vars []string
	for _, terms := range [2][]rdf.Term{p.Nodes, p.Edges} {
		for _, t := range terms {
			if t.IsVar() && !slices.Contains(vars, t.Value) {
				vars = append(vars, t.Value)
			}
		}
	}
	return vars
}
