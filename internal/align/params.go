// Package align implements the paper's similarity measure: the path
// alignment of Definition 6, the quality function λ (Equation 1), the
// conformity function ψ with its node-intersection χ, and the final
// score(a, Q) = Λ(a, Q) + Ψ(a, Q). Lower scores mean more relevant
// answers (Theorem 1: score is coherent with the relevance order of
// Definition 4).
//
// Two aligners are provided. Greedy is the production aligner: a single
// backward scan (“contrary to the direction of the edges”, §4.3) with
// one-step lookahead, running in O(|p| + |q|) time as the paper claims.
// Optimal is a dynamic-programming aligner in O(|p|·|q|) used as a test
// oracle and for ablation benchmarks; Greedy(p, q) ≥ Optimal(p, q)
// always, with equality on all of the paper's worked examples.
package align

import "math"

// Params holds the weights of relevance ω assigned to the basic update
// operations of a transformation τ (Definition 4 and Equation 1).
//
// Following the paper's worked examples (§4.3): a node of the data path
// that mismatches a constant node of the query path costs A; a node the
// transformation inserts into the query path costs B; the corresponding
// edge operations cost C and D. Label modifications that bind a variable
// are free (ω(×) = 0, as fixed in the proof of Theorem 1). E weighs the
// conformity component ψ.
//
// The paper's Equation 1 and the proof of Theorem 1 label the mismatch
// counters inconsistently (n⁻ is described both as “elements of p not
// present in q” and as “elements inserted in Q”); we follow the worked
// examples, which unambiguously price a constant-label mismatch at A
// (nodes) / C (edges) and an insertion at B / D.
type Params struct {
	// A is the weight of a node-label mismatch (n⁻N).
	A float64
	// B is the weight of a node insertion (nʸN).
	B float64
	// C is the weight of an edge-label mismatch (n⁻E).
	C float64
	// D is the weight of an edge insertion (nʸE).
	D float64
	// E is the weight of the conformity component ψ.
	E float64
}

// DefaultParams are the coefficients used in the paper's experiments
// (§6.2): a = 1, b = 0.5, c = 2, d = 1. The paper does not report e; we
// use 1 so that a perfectly conforming pair contributes exactly e.
var DefaultParams = Params{A: 1, B: 0.5, C: 2, D: 1, E: 1}

// Valid reports whether the parameters are usable: all weights must be
// finite and non-negative, so mismatches are never cheaper than free.
// NaN fails every comparison, so it is rejected too.
func (p Params) Valid() bool {
	ok := func(w float64) bool { return w >= 0 && !math.IsInf(w, 1) }
	return ok(p.A) && ok(p.B) && ok(p.C) && ok(p.D) && ok(p.E)
}
