package align

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sama/internal/datasets"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/workload"
)

// classKey is a data path's class for one query path: its edge labels,
// and each node label projected onto the query path's constants — the
// one it equals, and the ones it is token-related to (tokenRelated, as
// the window tie-break asks it). Both aligners read a data label only
// through these, so equal keys must mean equal alignments.
func classKey(p, q paths.Path) string {
	var consts []rdf.Term
	for _, terms := range [2][]rdf.Term{q.Nodes, q.Edges} {
		for _, t := range terms {
			if t.Kind != rdf.Var {
				consts = append(consts, t)
			}
		}
	}
	var qs queryStems
	qs.use(q)
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			fmt.Fprintf(&b, " -%v- ", p.Edges[i-1])
		}
		b.WriteString("[")
		for ci, c := range consts {
			switch {
			case n == c:
				fmt.Fprintf(&b, "=%d", ci)
			case tokenRelated(qs.of(c), n):
				fmt.Fprintf(&b, "~%d", ci)
			}
		}
		b.WriteString("]")
	}
	return b.String()
}

// TestClassKeyDeterminesAlignment: two data paths with equal class keys
// against a query path get equal Cost, the same eight counters, the
// same operation kinds, and a Subst that maps onto the other's by
// position — under both aligners and random valid Params, over seeded
// random short paths with shared tokens and over the paths of a LUBM
// 10 k graph against the LUBM query paths.
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

// checkClasses groups ps by class key against q and checks each
// member's alignment against its class's first member's, under both
// aligners. It returns the number of classes with two or more members.
func checkClasses(t *testing.T, q paths.Path, ps []paths.Path, par Params) int {
	t.Helper()
	classes := map[string][]paths.Path{}
	for _, p := range ps {
		k := classKey(p, q)
		if len(classes[k]) < 6 {
			classes[k] = append(classes[k], p)
		}
	}
	shared := 0
	for _, members := range classes {
		if len(members) < 2 {
			continue
		}
		shared++
		for name, al := range map[string]opsAligner{"greedy": NewGreedy(par), "optimal": NewOptimal(par)} {
			var ops0 []Op
			a0 := al.alignOps(members[0], q, &ops0)
			for _, p := range members[1:] {
				var ops []Op
				a := al.alignOps(p, q, &ops)
				if msg := sameAlignment(a0, a, ops0, ops, members[0], p); msg != "" {
					t.Fatalf("%s under %+v, query path %v:\n  %v\n  %v\nshare the class key %s but %s",
						name, par, q, members[0], p, classKey(p, q), msg)
				}
			}
		}
	}
	return shared
}

// sameAlignment says how the alignments a and b of the data paths pa and
// pb differ, "" when they do not: cost, counters, operation kinds, or a
// binding of b that is not the term at a position where a's binding
// sits in pa.
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
	case len(a.Subst) != len(b.Subst):
		return fmt.Sprintf("substitutions %v and %v", a.Subst, b.Subst)
	}
	for v, ta := range a.Subst {
		tb, ok := b.Subst[v]
		mapped := false
		for i, n := range pa.Nodes {
			mapped = mapped || n == ta && pb.Nodes[i] == tb
		}
		for i, e := range pa.Edges {
			mapped = mapped || e == ta && pb.Edges[i] == tb
		}
		if !ok || !mapped {
			return fmt.Sprintf("?%s bound to %v and %v, which no position pairs", v, ta, tb)
		}
	}
	return ""
}
