package align

import (
	"math"
	"math/rand"
	"testing"

	"sama/internal/paths"
)

// TestAnchorPriceEqualsAlignmentCost: the window sweep prices every
// anchor with costPairs and treats equal prices as ties, so a price must
// be bit-identical to the Cost the anchored scan reports, and Align's
// Cost the least of them — under DefaultParams and under weights whose
// sums a running float total rounds differently from the grouped
// products of addCost, over random paths.
func TestAnchorPriceEqualsAlignmentCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	labels := []string{"a", "b", "c", "p", "q", "?x", "?y"}
	gen := func(nodes int) paths.Path {
		var p paths.Path
		for i := range 2*nodes - 1 {
			l := termFor(labels[rng.Intn(len(labels))])
			if i%2 == 0 {
				p.Nodes = append(p.Nodes, l)
			} else {
				p.Edges = append(p.Edges, l)
			}
		}
		return p
	}
	for _, par := range []Params{
		DefaultParams,
		{A: .1, B: .2, C: .3, D: .7, E: 1},
		{A: .3, B: .1, C: .7, D: .2, E: 1},
	} {
		g := NewGreedy(par)
		for range 20_000 {
			p, q := gen(1+rng.Intn(8)), gen(1+rng.Intn(5))
			g.pp = backwardPairsInto(g.pp[:0], p)
			g.qp = backwardPairsInto(g.qp[:0], q)
			least := math.Inf(1)
			for at := range p.Nodes {
				pp := g.pp[len(g.pp)-at:]
				price := g.costPairs(p.Nodes[at], q.Sink(), pp, g.qp)
				cost := g.alignPairs(pair{node: p.Nodes[at], at: at}, q.Sink(), pp, g.qp, nil).Cost
				if price != cost {
					t.Fatalf("%+v: anchor %d priced %v, its alignment costs %v\np=%s\nq=%s", par, at, price, cost, p, q)
				}
				if at > 0 || len(q.Nodes) == 1 || len(p.Nodes) == 1 {
					least = min(least, cost)
				}
			}
			if got := g.Align(p, q).Cost; got != least {
				t.Fatalf("%+v: Align costs %v, the cheapest anchor %v\np=%s\nq=%s", par, got, least, p, q)
			}
		}
	}
}
