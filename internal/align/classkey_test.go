package align

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sama/internal/datasets"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/workload"
)

// numberPaths numbers the terms of ps as a dictionary does, in first-use
// order, and returns each path's term-ID run (nodes, then edges), the
// table that decodes them, and the IDs of q's constants — nodes, then
// edges — as alignAll passes them to AppendClassKey.
func numberPaths(ps []paths.Path, q paths.Path) (runs [][]uint32, terms []rdf.Term, consts []uint32) {
	ids := map[rdf.Term]uint32{}
	for _, p := range ps {
		var run []uint32
		for _, t := range slices.Concat(p.Nodes, p.Edges) {
			id, ok := ids[t]
			if !ok {
				id = uint32(len(terms))
				ids[t], terms = id, append(terms, t)
			}
			run = append(run, id)
		}
		runs = append(runs, run)
	}
	for _, t := range slices.Concat(q.Nodes, q.Edges) {
		if t.IsConstant() {
			id, ok := ids[t]
			if !ok {
				id = math.MaxUint32
			}
			consts = append(consts, id)
		}
	}
	return runs, terms, consts
}

// TestClassKeyDeterminesAlignment: two data paths of the same class
// against a query path — equal AppendClassKey keys, and equal
// AppendTieKey keys too when the class's first member broke a window
// tie, as alignAll decides it — get equal Cost, the same eight
// counters, the same operation kinds, and their bindings at the same
// positions (Bound), each one's own term there — under the greedy
// aligner, and under the optimal one with the tie key always added,
// for random valid Params, over seeded random short paths with shared
// tokens (some with an edge label that is also one of the path's node
// terms, which a query edge variable may bind) and over the paths of a
// LUBM 10 k graph against the LUBM query paths.
func TestClassKeyDeterminesAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := []Params{DefaultParams}
	for range 4 {
		w := func() float64 { return float64(rng.Intn(5)) / 2 }
		params = append(params, Params{A: w(), B: w(), C: w(), D: w(), E: 1})
	}

	// Random paths: node labels from a small vocabulary whose tokens
	// overlap, and from labels related to nothing.
	nodes := []string{"teacherOf", "teaches", "Teacher", "course", "Course7", "graduateStudent",
		"student", "advisor", "Dept0", "dept1"}
	edges := []string{"p", "teacherOf", "takesCourse", "advisor", "type"}
	term := func(vocab []string) rdf.Term {
		switch r := rng.Intn(len(vocab) + 2); {
		case r < len(vocab):
			return rdf.NewIRI(vocab[r])
		case r == len(vocab):
			return rdf.NewLiteral(vocab[rng.Intn(len(vocab))])
		}
		return rdf.NewIRI(fmt.Sprintf("x%d", rng.Intn(4)))
	}
	randPath := func(n int, vars bool) paths.Path {
		var p paths.Path
		for i := range n {
			nd := term(nodes)
			if vars && rng.Intn(2) == 0 {
				nd = rdf.NewVar(fmt.Sprintf("v%d", i))
			}
			p.Nodes = append(p.Nodes, nd)
			if i+1 < n {
				e := rdf.NewIRI(edges[rng.Intn(len(edges))])
				if vars && rng.Intn(4) == 0 {
					e = rdf.NewVar(fmt.Sprintf("e%d", i))
				}
				p.Edges = append(p.Edges, e)
			}
		}
		// An edge label that is also a node term of the path: the term
		// sits at two positions, and only one of them was bound.
		if nd := p.Nodes[rng.Intn(n)]; !vars && n > 1 && nd.Kind == rdf.IRI && rng.Intn(3) == 0 {
			p.Edges[rng.Intn(n-1)] = nd
		}
		return p
	}
	var groups int
	for range 60 {
		q := randPath(1+rng.Intn(4), true)
		var ps []paths.Path
		for range 300 {
			ps = append(ps, randPath(1+rng.Intn(5), false))
		}
		groups += checkClasses(t, q, ps, params[rng.Intn(len(params))])
	}

	// LUBM: every query path of Q1–Q12 against a sample of the paths a
	// build of LUBM 10 k holds.
	all := paths.Enumerate(datasets.LUBM{}.Generate(10000, 1), paths.DefaultConfig)
	for _, wq := range workload.LUBMQueries() {
		for _, q := range paths.Decompose(wq.Pattern) {
			sample := make([]paths.Path, 0, 800)
			for _, i := range rng.Perm(len(all))[:800] {
				sample = append(sample, all[i])
			}
			groups += checkClasses(t, q, sample, params[rng.Intn(len(params))])
		}
	}
	if groups < 100 {
		t.Errorf("only %d classes with more than one member; the test needs more", groups)
	}
}

// checkClasses groups ps into classes against q as alignAll does — by
// class key, then by tie key within a class whose first member tied —
// and checks each member's alignment against its class's first
// member's under the greedy aligner; under the optimal one the tie key
// always joins the class key. It returns the number of classes with two
// or more members.
func checkClasses(t *testing.T, q paths.Path, ps []paths.Path, par Params) int {
	t.Helper()
	runs, terms, consts := numberPaths(ps, q)
	g := NewGreedy(par)
	related := func(id uint32) uint64 { return g.Related(q, terms[id]) }
	coarse := map[string][]int{}
	for i, run := range runs {
		if k := string(AppendClassKey(nil, run, consts)); len(coarse[k]) < 8 {
			coarse[k] = append(coarse[k], i)
		}
	}
	shared := 0
	for _, members := range coarse {
		g.Align(ps[members[0]], q)
		tied := g.Tied()
		greedy, optimal := map[string][]int{}, map[string][]int{}
		for _, i := range members {
			if g.Align(ps[i], q); g.Tied() != tied {
				t.Fatalf("query path %v: %v and %v share a class key, but only one broke a window tie", q, ps[members[0]], ps[i])
			}
			k := AppendTieKey(AppendClassKey(nil, runs[i], consts), runs[i], related)
			optimal[string(k)] = append(optimal[string(k)], i)
			if !tied {
				k = AppendClassKey(nil, runs[i], consts)
			}
			greedy[string(k)] = append(greedy[string(k)], i)
		}
		for name, classes := range map[string]map[string][]int{"greedy": greedy, "optimal": optimal} {
			al := map[string]opsAligner{"greedy": g, "optimal": NewOptimal(par)}[name]
			for _, class := range classes {
				if len(class) < 2 {
					continue
				}
				if name == "greedy" {
					shared++
				}
				var ops0 []Op
				p0 := ps[class[0]]
				a0 := al.alignOps(p0, q, &ops0)
				for _, i := range class[1:] {
					var ops []Op
					a := al.alignOps(ps[i], q, &ops)
					if msg := sameAlignment(a0, a, ops0, ops, p0, ps[i]); msg != "" {
						t.Fatalf("%s under %+v, query path %v:\n  %v\n  %v\nare of one class but %s", name, par, q, p0, ps[i], msg)
					}
				}
			}
		}
	}
	return shared
}

// sameAlignment says how the alignments a and b of the data paths pa and
// pb differ, "" when they do not: cost, counters, operation kinds, or
// binding positions, or a binding that is not the path's term at its
// position.
func sameAlignment(a, b *Alignment, opsA, opsB []Op, pa, pb paths.Path) string {
	counters := func(al *Alignment) [8]int {
		return [8]int{al.NodeMismatches, al.NodeInsertions, al.EdgeMismatches, al.EdgeInsertions,
			al.NodeDeletions, al.EdgeDeletions, al.ContextNodes, al.ContextEdges}
	}
	kinds := func(ops []Op) []OpKind {
		var ks []OpKind
		for _, op := range ops {
			ks = append(ks, op.Kind)
		}
		return ks
	}
	switch {
	case a.Cost != b.Cost:
		return fmt.Sprintf("costs %v and %v", a.Cost, b.Cost)
	case counters(a) != counters(b):
		return fmt.Sprintf("counters %v and %v", counters(a), counters(b))
	case !slices.Equal(kinds(opsA), kinds(opsB)):
		return fmt.Sprintf("operations %v and %v", kinds(opsA), kinds(opsB))
	case !slices.Equal(a.Bound, b.Bound):
		return fmt.Sprintf("bindings at %v and %v", a.Bound, b.Bound)
	}
	for _, x := range []struct {
		al *Alignment
		p  paths.Path
	}{{a, pa}, {b, pb}} {
		if len(x.al.Subst) != len(x.al.Bound) {
			return fmt.Sprintf("substitution %v bound at %v", x.al.Subst, x.al.Bound)
		}
		for _, bd := range x.al.Bound {
			at := x.p.Nodes
			if bd.Edge {
				at = x.p.Edges
			}
			if at[bd.At] != x.al.Subst[bd.Var] {
				return fmt.Sprintf("?%s bound to %v, but %v sits at %+v", bd.Var, x.al.Subst[bd.Var], at[bd.At], bd)
			}
		}
	}
	return ""
}
