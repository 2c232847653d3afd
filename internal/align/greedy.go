package align

import (
	"sama/internal/paths"
	"sama/internal/rdf"
)

// pair is one (edge, node) step of a path read backwards from the sink,
// and at the index of both in the path's Edges and Nodes.
// The path l1-e1-l2-…-e(k-1)-lk is viewed as the sink node lk followed by
// the backward pairs (e(k-1), l(k-1)), …, (e1, l1). Aligning two paths
// anchored at their sinks then reduces to aligning two pair sequences,
// which keeps node↔node and edge↔edge pairings by construction.
type pair struct {
	edge, node rdf.Term
	at         int
}

// backwardPairs returns the (edge, node) pairs of p from the sink toward
// the source.
func backwardPairs(p paths.Path) []pair {
	return backwardPairsInto(nil, p)
}

// backwardPairsInto is backwardPairs appending into dst's capacity, so
// a long-lived aligner can reuse one scratch slice across calls.
func backwardPairsInto(dst []pair, p paths.Path) []pair {
	k := len(p.Nodes)
	for t := k - 2; t >= 0; t-- {
		dst = append(dst, pair{edge: p.Edges[t], node: p.Nodes[t], at: t})
	}
	return dst
}

func pairCost(pp, qp pair, par Params) float64 {
	return edgeStepCost(pp.edge, qp.edge, par) + nodeStepCost(pp.node, qp.node, par)
}

// GreedyAligner is the production aligner: a single backward scan with
// one-pair lookahead. Its running time is O(|p| + |q|), matching the
// complexity claim of §4.3. The scan starts at the sinks (“proceeding
// with a scan contrary to the direction of the edges”) and resolves each
// local disagreement by preferring, in order: a zero-cost pairing, an
// insertion/deletion that re-synchronises the scan on the next pair, and
// finally whichever of substitution or indel is cheaper under Params.
// A GreedyAligner carries reusable scratch across Align calls, so it is
// NOT safe for concurrent use — the engine makes one per cluster build.
type GreedyAligner struct {
	Params Params
	// pp, qp are backward-pair scratch reused across Align calls. The
	// window search reuses suffixes of pp for the trimmed anchors, so
	// one Align computes each path's pairs exactly once instead of once
	// per anchor.
	pp, qp []pair
	// tie is the window tie-break's scratch.
	tie tieScratch
}

// NewGreedy returns a GreedyAligner with the given parameters.
func NewGreedy(par Params) *GreedyAligner { return &GreedyAligner{Params: par} }

// Align implements Aligner. The query may match any *window* of the
// data path: the sink-to-sink scan of §4.3 is tried first, then every
// interior anchor (query sink aligned at position t of p, the suffix
// past t free context — the path merely gathered more labels). The
// cheapest anchoring wins, so a query ending mid-path binds the nodes
// the window actually covers instead of whatever the path ends at.
// Each anchored scan is O(|p|+|q|) and p is bounded by the indexing
// MaxLength, keeping Align linear in practice.
func (g *GreedyAligner) Align(p, q paths.Path) *Alignment { return g.alignOps(p, q, nil) }

// alignOps is Align that also appends the returned alignment's
// operation sequence to *log when log is non-nil.
func (g *GreedyAligner) alignOps(p, q paths.Path, log *[]Op) *Alignment {
	g.tie.tied = false
	if len(p.Nodes) == 0 || len(q.Nodes) == 0 {
		return g.alignAnchored(p, q, log)
	}
	g.pp = backwardPairsInto(g.pp[:0], p)
	g.qp = backwardPairsInto(g.qp[:0], q)
	// Trimming p at anchor t keeps its first t+1 nodes, whose backward
	// pairs are exactly the last t entries of the full pair sequence —
	// each anchor reuses the one scratch fill above.
	core := func(t int, log *[]Op) *Alignment {
		return g.alignPairs(pair{node: p.Nodes[t], at: t}, q.Sink(), g.pp[len(g.pp)-t:], g.qp, log)
	}
	costAt := func(t int) float64 {
		return g.costPairs(p.Nodes[t], q.Sink(), g.pp[len(g.pp)-t:], g.qp)
	}
	return alignBestWindow(core, costAt, p, q, g.Params, log, &g.tie)
}

// alignAnchored is the sink-to-sink backward scan (allocating variant;
// the hot path goes through Align's scratch-reusing closures).
func (g *GreedyAligner) alignAnchored(p, q paths.Path, log *[]Op) *Alignment {
	par := g.Params
	if len(p.Nodes) == 0 || len(q.Nodes) == 0 {
		// Degenerate: treat every element of the non-empty side as an
		// insertion (p side) or deletion (q side).
		al := &Alignment{Subst: rdf.Substitution{}}
		for _, n := range p.Nodes {
			al.record(log, OpNodeInsert, rdf.Term{}, n)
		}
		for _, e := range p.Edges {
			al.record(log, OpEdgeInsert, rdf.Term{}, e)
		}
		for _, n := range q.Nodes {
			al.record(log, OpNodeDelete, n, rdf.Term{})
		}
		for _, e := range q.Edges {
			al.record(log, OpEdgeDelete, e, rdf.Term{})
		}
		al.addCost(par)
		return al
	}
	return g.alignPairs(pair{node: p.Sink(), at: len(p.Nodes) - 1}, q.Sink(), backwardPairs(p), backwardPairs(q), log)
}

// alignPairs runs the §4.3 backward scan over precomputed pair
// sequences, anchored at the data node sink.node (at sink.at) and the
// query sink qSink, emitting the operations into log when it is non-nil.
func (g *GreedyAligner) alignPairs(sink pair, qSink rdf.Term, pp, qp []pair, log *[]Op) *Alignment {
	par := g.Params
	al := &Alignment{Subst: rdf.Substitution{}, Bound: make([]Binding, 0, 2*len(qp)+1)}

	// Anchor at the sinks.
	al.step(log, nodeStep(sink.node, qSink), qSink, sink.node, Binding{At: sink.at})

	i, j := 0, 0
	indel := par.B + par.D // cost of inserting a (edge, node) pair into q
	drop := par.A + par.C  // cost of deleting a (edge, node) pair from q
	for i < len(pp) || j < len(qp) {
		switch {
		case i >= len(pp):
			// p exhausted: the remaining query pairs are unmet.
			al.record(log, OpEdgeDelete, qp[j].edge, rdf.Term{})
			al.record(log, OpNodeDelete, qp[j].node, rdf.Term{})
			j++
		case j >= len(qp):
			// q exhausted: the remaining data pairs lie before the
			// query's source — free context, not insertions.
			al.record(log, OpEdgeContext, rdf.Term{}, pp[i].edge)
			al.record(log, OpNodeContext, rdf.Term{}, pp[i].node)
			i++
		default:
			sub := pairCost(pp[i], qp[j], par)
			if sub == 0 {
				al.pairUp(log, pp[i], qp[j])
				i++
				j++
				continue
			}
			// One-pair lookahead: compare the two-step cost of an indel
			// plus its follow-up pairing against substituting here (the
			// aTo-B1432 insertion of the paper's worked example wins
			// exactly when the lookahead re-synchronises the scan more
			// cheaply than the local mismatch).
			surplus := (len(pp) - i) - (len(qp) - j)
			insertWins := false
			if surplus > 0 && i+1 < len(pp) {
				insertWins = indel+pairCost(pp[i+1], qp[j], par) < sub
			}
			dropWins := false
			if surplus < 0 && j+1 < len(qp) {
				dropWins = drop+pairCost(pp[i], qp[j+1], par) < sub
			}
			switch {
			case insertWins:
				al.record(log, OpEdgeInsert, rdf.Term{}, pp[i].edge)
				al.record(log, OpNodeInsert, rdf.Term{}, pp[i].node)
				i++
			case dropWins:
				al.record(log, OpEdgeDelete, qp[j].edge, rdf.Term{})
				al.record(log, OpNodeDelete, qp[j].node, rdf.Term{})
				j++
			default:
				al.pairUp(log, pp[i], qp[j])
				i++
				j++
			}
		}
	}
	al.addCost(par)
	return al
}

// costPairs prices the §4.3 backward scan without materialising it: the
// branch structure mirrors alignPairs decision for decision, but only
// the operation counts accumulate — no substitution map, no allocation
// at all — and addCost prices them, so the price is bit-identical to
// the Cost alignPairs reports. A zero-cost pairing is not counted: any
// mismatch in it weighs 0. The window sweep prices every anchor with
// this and materialises an Alignment only for the winners.
func (g *GreedyAligner) costPairs(pSink, qSink rdf.Term, pp, qp []pair) float64 {
	par := g.Params
	var n Alignment // counts only
	if nodeStep(pSink, qSink) == OpNodeMismatch {
		n.NodeMismatches++
	}
	// ins and del count the (edge, node) pairs inserted and deleted.
	ins, del := 0, 0
	i, j := 0, 0
	indel := par.B + par.D
	drop := par.A + par.C
	for i < len(pp) || j < len(qp) {
		switch {
		case i >= len(pp):
			del++ // the remaining query pair is unmet
			j++
		case j >= len(qp):
			i++ // surplus before the query's source: free context
		default:
			sub := pairCost(pp[i], qp[j], par)
			if sub == 0 {
				i++
				j++
				continue
			}
			surplus := (len(pp) - i) - (len(qp) - j)
			insertWins := false
			if surplus > 0 && i+1 < len(pp) {
				insertWins = indel+pairCost(pp[i+1], qp[j], par) < sub
			}
			dropWins := false
			if surplus < 0 && j+1 < len(qp) {
				dropWins = drop+pairCost(pp[i], qp[j+1], par) < sub
			}
			switch {
			case insertWins:
				ins++
				i++
			case dropWins:
				del++
				j++
			default:
				if edgeStep(pp[i].edge, qp[j].edge) == OpEdgeMismatch {
					n.EdgeMismatches++
				}
				if nodeStep(pp[i].node, qp[j].node) == OpNodeMismatch {
					n.NodeMismatches++
				}
				i++
				j++
			}
		}
	}
	n.NodeInsertions, n.EdgeInsertions = ins, ins
	n.NodeDeletions, n.EdgeDeletions = del, del
	n.addCost(par)
	return n.Cost
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// tieScratch is alignBestWindow's tie-break scratch, kept by a
// long-lived aligner: the op log the tied windows record into when the
// caller did not ask for one, the query path's stemmed labels, and
// whether the last alignment broke a tie.
type tieScratch struct {
	ops   []Op
	stems queryStems
	tied  bool
}

// alignBestWindow tries the sink-to-sink anchoring and every interior
// anchor (query sink at position t of p; p's suffix past t is free
// context) and returns the cheapest alignment. core(t, log) aligns q
// against p trimmed to its first t+1 nodes (t = len(p.Nodes)-1 is the
// untrimmed path), emitting its operations into log when non-nil — an
// index contract rather than a trimmed paths.Path so the greedy aligner
// can reuse precomputed pair scratch per anchor.
// Ties prefer the anchor closest to p's sink, so the paper's examples
// keep their canonical alignments. Anchors at t = 0 are skipped for
// multi-edge queries: a one-node window cannot carry a structural
// match.
//
// The search is a pricing sweep and a materialisation step: costAt(t)
// must return exactly core(t).Cost without the allocation (context past
// the anchor is free, so the trimmed scan's cost is already final). The
// sweep walks the anchors sinkward first, stopping at the first free
// alignment, and collects the anchors that tie the winning price; only
// those are materialised, and ties resolve by window affinity with the
// earlier anchor winning equal scores.
//
// The winner's operations are appended to *log when log is non-nil.
// Only the tie-break reads operations itself: when anchors tie and the
// caller passed no log, the tied windows record into tie.ops (scratch,
// overwritten); an untied alignment emits nothing.
func alignBestWindow(core func(t int, log *[]Op) *Alignment, costAt func(t int) float64, p, q paths.Path, par Params, log *[]Op, tie *tieScratch) *Alignment {
	last := len(p.Nodes) - 1
	if len(q.Nodes) == 0 || len(p.Nodes) < 2 {
		return core(last, log)
	}
	minT := 1
	if len(q.Nodes) == 1 {
		minT = 0
	}
	bestT := last
	bestCost := costAt(last)
	var ties []int
	for t := last - 1; t >= minT && bestCost != 0; t-- {
		c := costAt(t)
		if c > bestCost {
			continue
		}
		if c == bestCost {
			ties = append(ties, t)
			continue
		}
		bestCost, bestT, ties = c, t, ties[:0]
	}
	ops, base := log, 0
	tie.tied = len(ties) > 0
	if ops == nil && tie.tied {
		tie.ops = tie.ops[:0]
		ops = &tie.ops
	}
	if ops != nil {
		base = len(*ops)
	}
	best := core(bestT, ops)
	if tie.tied {
		// Equal price: prefer the window whose mismatches are
		// token-related to the query (teaches ↔ teacherOf beats
		// teaches ↔ type). The best window's operations sit at the end
		// of *ops from base on; each tied window records behind them
		// and either replaces them or is dropped.
		tie.stems.use(q)
		bestAffinity := windowAffinity((*ops)[base:], &tie.stems)
		for _, t := range ties {
			mark := len(*ops)
			alt := core(t, ops)
			if a := windowAffinity((*ops)[mark:], &tie.stems); a > bestAffinity {
				best, bestT, bestAffinity = alt, t, a
				*ops = append((*ops)[:base], (*ops)[mark:]...)
			} else {
				*ops = (*ops)[:mark]
			}
		}
	}
	if bestT < last {
		// The suffix p[bestT+1:] (and its edges) lies past the query's
		// endpoint — free context.
		for e := bestT; e < len(p.Edges); e++ {
			best.record(log, OpEdgeContext, rdf.Term{}, p.Edges[e])
		}
		for n := bestT + 1; n < len(p.Nodes); n++ {
			best.record(log, OpNodeContext, rdf.Term{}, p.Nodes[n])
		}
		best.addCost(par)
	}
	return best
}

// Lambda computes λ(p, q) with the greedy aligner: the quality of the
// alignment of data path p against query path q (Equation 1).
func Lambda(p, q paths.Path, par Params) float64 {
	return NewGreedy(par).Align(p, q).Cost
}
