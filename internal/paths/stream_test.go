package paths

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sama/internal/datasets"
	"sama/internal/rdf"
)

// randomGraph draws edges between n nodes over three labels: it has
// cycles, self-loops and (at these sizes) a few sources.
func randomGraph(seed int64, n, edges int) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := rdf.NewGraph()
	node := func() rdf.Term { return iri(fmt.Sprintf("n%d", rng.Intn(n))) }
	for range edges {
		s, p := node(), iri(fmt.Sprintf("p%d", rng.Intn(3)))
		g.AddTriple(tr(s, p, node()))
	}
	return g
}

// ringGraph is a sourceless graph: a ring of n nodes with a chord from
// every third node, so it is rooted at hubs.
func ringGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	at := func(i int) rdf.Term { return iri(fmt.Sprintf("r%d", i%n)) }
	for i := range n {
		g.AddTriple(tr(at(i), iri("next"), at(i+1)))
		if i%3 == 0 {
			g.AddTriple(tr(at(i), iri("skip"), at(i+5)))
		}
	}
	return g
}

type streamCase struct {
	name string
	g    *rdf.Graph
	cfg  Config
}

func streamCases() []streamCase {
	lubm := datasets.LUBM{}.Generate(6000, 1)
	return []streamCase{
		{"figure1", figure1Graph(), Config{}},
		{"lubm6k", lubm, DefaultConfig},
		{"sourceless", ringGraph(30), Config{MaxLength: 8}},
		{"cycles", randomGraph(3, 40, 90), Config{MaxLength: 6}},
		{"max-per-root", lubm, Config{MaxLength: 12, MaxPerRoot: 3}},
		// One path a root: the cut lands on every root's first path, so
		// each walker stops with a path still on its stack.
		{"one-per-root", lubm, Config{MaxLength: 12, MaxPerRoot: 1}},
	}
}

func pathOf(g Graph, nodes []rdf.NodeID, edges []rdf.EdgeID) Path {
	p := Path{}
	for _, n := range nodes {
		p.Nodes = append(p.Nodes, g.Term(n))
	}
	for _, e := range edges {
		p.Edges = append(p.Edges, g.Edge(e).Label)
	}
	return p
}

func samePaths(t *testing.T, what string, got, want []Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: path %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

// TestStreamOrderEqualsEnumerate checks that Stream over the path roots,
// at any walker count, gives Enumerate's paths in Enumerate's order, and
// over every other root gives just those roots' paths, in that order.
func TestStreamOrderEqualsEnumerate(t *testing.T) {
	for _, c := range streamCases() {
		t.Run(c.name, func(t *testing.T) {
			want := Enumerate(c.g, c.cfg)
			if len(want) == 0 {
				t.Fatal("case enumerates no path")
			}
			stream := func(roots []rdf.NodeID) []Path {
				var streamed []Path
				err := Stream(c.g, roots, c.cfg, func(nodes []rdf.NodeID, edges []rdf.EdgeID) error {
					streamed = append(streamed, pathOf(c.g, nodes, edges))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return streamed
			}
			for _, procs := range []int{1, 2, 7} {
				prev := runtime.GOMAXPROCS(procs)
				streamed := stream(c.g.PathRoots())
				runtime.GOMAXPROCS(prev)
				samePaths(t, fmt.Sprintf("Stream with %d walkers", procs), streamed, want)
			}
			var some []rdf.NodeID
			chosen := make(map[rdf.Term]bool)
			for i, r := range c.g.PathRoots() {
				if i%2 == 1 {
					some = append(some, r)
					chosen[c.g.Term(r)] = true
				}
			}
			var theirs []Path
			for _, p := range want {
				if chosen[p.Nodes[0]] {
					theirs = append(theirs, p)
				}
			}
			samePaths(t, "Stream over every other root", stream(some), theirs)
		})
	}
}

func TestStreamStopsAtEmitError(t *testing.T) {
	g := datasets.LUBM{}.Generate(6000, 1)
	stop := errors.New("stop")
	seen := 0
	err := Stream(g, g.PathRoots(), DefaultConfig, func([]rdf.NodeID, []rdf.EdgeID) error {
		if seen++; seen == 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || seen != 10 {
		t.Fatalf("Stream = %v after %d paths, want stop after 10", err, seen)
	}
}
