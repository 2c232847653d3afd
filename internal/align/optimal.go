package align

import (
	"sama/internal/paths"
	"sama/internal/rdf"
)

// OptimalAligner computes a minimum-cost alignment by dynamic
// programming over the backward pair sequences, in O(|p|·|q|) time and
// space. It is the reference oracle for the linear GreedyAligner and the
// subject of the greedy-vs-optimal ablation benchmark: for every input,
// Optimal.Align(p, q).Cost ≤ Greedy.Align(p, q).Cost.
type OptimalAligner struct {
	Params Params
}

// NewOptimal returns an OptimalAligner with the given parameters.
func NewOptimal(par Params) *OptimalAligner { return &OptimalAligner{Params: par} }

// Align implements Aligner, running the same best-window anchor search
// as the greedy aligner with the DP core.
func (o *OptimalAligner) Align(p, q paths.Path) *Alignment { return o.alignOps(p, q, nil) }

// alignOps is Align that also appends the returned alignment's
// operation sequence to *log when log is non-nil.
func (o *OptimalAligner) alignOps(p, q paths.Path, log *[]Op) *Alignment {
	core := func(t int, log *[]Op) *Alignment {
		if t == len(p.Nodes)-1 {
			return o.alignAnchored(p, q, log)
		}
		trimmed := paths.Path{Nodes: p.Nodes[:t+1], Edges: p.Edges[:t]}
		return o.alignAnchored(trimmed, q, log)
	}
	var tie tieScratch
	return alignBestWindow(core, func(t int) float64 { return core(t, nil).Cost }, p, q, o.Params, log, &tie)
}

func (o *OptimalAligner) alignAnchored(p, q paths.Path, log *[]Op) *Alignment {
	par := o.Params
	al := &Alignment{Subst: rdf.Substitution{}}
	if len(p.Nodes) == 0 || len(q.Nodes) == 0 {
		return NewGreedy(par).alignAnchored(p, q, log) // degenerate cases coincide
	}
	pp := backwardPairs(p)
	qp := backwardPairs(q)
	n, m := len(pp), len(qp)
	indel := par.B + par.D
	drop := par.A + par.C

	// insCost prices skipping one p pair at q position j: a mid-path
	// insertion while query pairs remain, free context once the query
	// is fully consumed (j == m, the source side; see OpNodeContext).
	insCost := func(j int) float64 {
		if j == m {
			return 0
		}
		return indel
	}

	// D[i][j] = min cost of aligning the first i backward pairs of p
	// with the first j backward pairs of q.
	D := make([][]float64, n+1)
	for i := range D {
		D[i] = make([]float64, m+1)
	}
	for i := 1; i <= n; i++ {
		D[i][0] = float64(i) * insCost(0)
	}
	for j := 1; j <= m; j++ {
		D[0][j] = float64(j) * drop
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			best := D[i-1][j-1] + pairCost(pp[i-1], qp[j-1], par)
			if c := D[i-1][j] + insCost(j); c < best {
				best = c
			}
			if c := D[i][j-1] + drop; c < best {
				best = c
			}
			D[i][j] = best
		}
	}

	// Backtrace to recover the operation sequence. Ties prefer the
	// diagonal (substitution), then insertion, matching Greedy's bias.
	type step struct{ kind uint8 } // 0 diag, 1 insert-p, 2 delete-q
	var rev []step
	i, j := n, m
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && D[i][j] == D[i-1][j-1]+pairCost(pp[i-1], qp[j-1], par):
			rev = append(rev, step{0})
			i--
			j--
		case i > 0 && D[i][j] == D[i-1][j]+insCost(j):
			rev = append(rev, step{1})
			i--
		default:
			rev = append(rev, step{2})
			j--
		}
	}

	// Emit ops in scan order: sink anchor first, then pairs backwards.
	al.record(log, nodeStep(p.Sink(), q.Sink()), q.Sink(), p.Sink())
	pi, qi := 0, 0
	for k := len(rev) - 1; k >= 0; k-- {
		switch rev[k].kind {
		case 0:
			al.record(log, edgeStep(pp[pi].edge, qp[qi].edge), qp[qi].edge, pp[pi].edge)
			al.record(log, nodeStep(pp[pi].node, qp[qi].node), qp[qi].node, pp[pi].node)
			pi++
			qi++
		case 1:
			if qi == m {
				// Query fully consumed: source-side free context.
				al.record(log, OpEdgeContext, rdf.Term{}, pp[pi].edge)
				al.record(log, OpNodeContext, rdf.Term{}, pp[pi].node)
			} else {
				al.record(log, OpEdgeInsert, rdf.Term{}, pp[pi].edge)
				al.record(log, OpNodeInsert, rdf.Term{}, pp[pi].node)
			}
			pi++
		case 2:
			al.record(log, OpEdgeDelete, qp[qi].edge, rdf.Term{})
			al.record(log, OpNodeDelete, qp[qi].node, rdf.Term{})
			qi++
		}
	}
	al.addCost(par)
	return al
}

// LambdaOptimal computes λ(p, q) with the DP aligner.
func LambdaOptimal(p, q paths.Path, par Params) float64 {
	return NewOptimal(par).Align(p, q).Cost
}
