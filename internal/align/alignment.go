package align

import (
	"fmt"

	"sama/internal/paths"
	"sama/internal/rdf"
)

// OpKind is the kind of one basic update operation recovered by an
// alignment (the ε of Definition 4).
type OpKind uint8

const (
	// OpMatch aligns two equal constants; cost 0.
	OpMatch OpKind = iota
	// OpBind substitutes a variable with a constant (part of φ); cost 0.
	OpBind
	// OpNodeMismatch aligns two different constant node labels; counted
	// in n⁻N, cost A.
	OpNodeMismatch
	// OpEdgeMismatch aligns two different constant edge labels; counted
	// in n⁻E, cost C.
	OpEdgeMismatch
	// OpNodeInsert inserts a node of p into q; counted in nʸN, cost B.
	OpNodeInsert
	// OpEdgeInsert inserts an edge of p into q; counted in nʸE, cost D.
	OpEdgeInsert
	// OpNodeDelete drops a node of q that has no counterpart in p;
	// priced like a mismatch (cost A): the answer lacks a concept the
	// query asked for.
	OpNodeDelete
	// OpEdgeDelete drops an edge of q with no counterpart in p; cost C.
	OpEdgeDelete
	// OpNodeContext marks a node of p outside the matched window — the
	// surplus before the query's source or after its sink. Context is
	// free: the paper fixes ω(×) = 0 “because we do not want to
	// penalize the case where the answer gathers more labels than Q”,
	// and a data path that merely continues past the query's endpoints
	// has gathered labels, not diverged. Mid-path insertions (the
	// aTo-B1432 case) keep their Equation 1 price.
	OpNodeContext
	// OpEdgeContext marks an edge of p outside the matched window; free.
	OpEdgeContext
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpMatch:
		return "match"
	case OpBind:
		return "bind"
	case OpNodeMismatch:
		return "node-mismatch"
	case OpEdgeMismatch:
		return "edge-mismatch"
	case OpNodeInsert:
		return "node-insert"
	case OpEdgeInsert:
		return "edge-insert"
	case OpNodeDelete:
		return "node-delete"
	case OpEdgeDelete:
		return "edge-delete"
	case OpNodeContext:
		return "node-context"
	case OpEdgeContext:
		return "edge-context"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one recovered operation: the query-path element it touches (Q)
// and the data-path element involved (P), either of which may be the
// zero Term for insertions/deletions. An Alignment does not retain its
// operations: the aligners emit them, ordered from the sink backwards
// (the scan direction of §4.3), into an op log the caller supplies —
// the window tie-break and the tests are the only readers.
type Op struct {
	Kind OpKind
	Q, P rdf.Term
}

// Alignment is the result of aligning a data path p against a query path
// q: the τ∘φ of Definition 6, with its cost broken down by operation
// class. Cost is exactly λ(p, q) under the Params used.
type Alignment struct {
	// Cost is λ(p, q) = A·NodeMismatches + B·NodeInsertions +
	// C·EdgeMismatches + D·EdgeInsertions + A·NodeDeletions +
	// C·EdgeDeletions.
	Cost float64
	// NodeMismatches is n⁻N of Equation 1.
	NodeMismatches int
	// NodeInsertions is nʸN of Equation 1.
	NodeInsertions int
	// EdgeMismatches is n⁻E of Equation 1.
	EdgeMismatches int
	// EdgeInsertions is nʸE of Equation 1.
	EdgeInsertions int
	// NodeDeletions and EdgeDeletions count query elements with no
	// counterpart in the data path (q longer than p).
	NodeDeletions int
	EdgeDeletions int
	// ContextNodes and ContextEdges count data elements outside the
	// matched window (before the query's source or past its sink).
	// They are free (see OpNodeContext) and excluded from nʸ.
	ContextNodes int
	ContextEdges int
	// Subst is the recovered substitution φ: variable bindings chosen by
	// the alignment. When a variable occurs at several positions with
	// conflicting values, the binding closest to the sink wins; the other
	// occurrences are free labeling modifications (ω(×) = 0, as fixed in
	// the proof of Theorem 1), so they do not contribute to Cost.
	Subst rdf.Substitution
	// Bound says where in p each binding of Subst was made, in order.
	Bound []Binding
}

// Binding is a variable's binding position: p.Nodes[At], or p.Edges[At].
type Binding struct {
	Var  string
	Edge bool
	At   int
}

func (al *Alignment) addCost(p Params) {
	al.Cost = p.A*float64(al.NodeMismatches) +
		p.B*float64(al.NodeInsertions) +
		p.C*float64(al.EdgeMismatches) +
		p.D*float64(al.EdgeInsertions) +
		p.A*float64(al.NodeDeletions) +
		p.C*float64(al.EdgeDeletions)
}

// Perfect reports whether the alignment needed no transformation at all:
// p is an exact match of q up to variable substitution.
func (al *Alignment) Perfect() bool {
	return al.NodeMismatches == 0 && al.NodeInsertions == 0 &&
		al.EdgeMismatches == 0 && al.EdgeInsertions == 0 &&
		al.NodeDeletions == 0 && al.EdgeDeletions == 0
}

// record applies one operation to the counters, and appends it to log
// when log is non-nil.
func (al *Alignment) record(log *[]Op, kind OpKind, q, p rdf.Term) {
	switch kind {
	case OpNodeMismatch:
		al.NodeMismatches++
	case OpEdgeMismatch:
		al.EdgeMismatches++
	case OpNodeInsert:
		al.NodeInsertions++
	case OpEdgeInsert:
		al.EdgeInsertions++
	case OpNodeDelete:
		al.NodeDeletions++
	case OpEdgeDelete:
		al.EdgeDeletions++
	case OpNodeContext:
		al.ContextNodes++
	case OpEdgeContext:
		al.ContextEdges++
	}
	if log != nil {
		*log = append(*log, Op{Kind: kind, Q: q, P: p})
	}
}

// step records the pairing of the query element q with the data element
// p at at: a variable q is bound there unless an earlier step bound it.
func (al *Alignment) step(log *[]Op, kind OpKind, q, p rdf.Term, at Binding) {
	if kind == OpBind {
		if _, ok := al.Subst[q.Value]; !ok {
			al.Subst[q.Value] = p
			at.Var = q.Value
			al.Bound = append(al.Bound, at)
		}
	}
	al.record(log, kind, q, p)
}

// pairUp records the pairing of the data pair dp with the query pair
// qp: the edges, then the nodes.
func (al *Alignment) pairUp(log *[]Op, dp, qp pair) {
	al.step(log, edgeStep(dp.edge, qp.edge), qp.edge, dp.edge, Binding{Edge: true, At: dp.at})
	al.step(log, nodeStep(dp.node, qp.node), qp.node, dp.node, Binding{At: dp.at})
}

// nodeStep classifies the pairing of a data node label against a query
// node label: OpBind when the query side is a variable, OpMatch on equal
// labels, OpNodeMismatch otherwise. Edge variables (legal in query
// graphs) also bind.
func nodeStep(pn, qn rdf.Term) OpKind {
	switch {
	case qn.Kind == rdf.Var:
		return OpBind
	case pn == qn:
		return OpMatch
	default:
		return OpNodeMismatch
	}
}

func edgeStep(pe, qe rdf.Term) OpKind {
	switch {
	case qe.Kind == rdf.Var:
		return OpBind
	case pe == qe:
		return OpMatch
	default:
		return OpEdgeMismatch
	}
}

// nodeStepCost returns the λ contribution of pairing the two node labels.
func nodeStepCost(pn, qn rdf.Term, par Params) float64 {
	if nodeStep(pn, qn) == OpNodeMismatch {
		return par.A
	}
	return 0
}

func edgeStepCost(pe, qe rdf.Term, par Params) float64 {
	if edgeStep(pe, qe) == OpEdgeMismatch {
		return par.C
	}
	return 0
}

// Aligner aligns a data path against a query path under some Params.
type Aligner interface {
	// Align returns the alignment of data path p against query path q.
	Align(p, q paths.Path) *Alignment
}
