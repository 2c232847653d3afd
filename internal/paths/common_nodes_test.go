package paths

import (
	"math/rand"
	"reflect"
	"testing"

	"sama/internal/rdf"
)

// commonNodesMap is the reference χ: the map-based implementation
// CommonNodes uses above smallPathNodes, restated here so the linear
// fast path can be diffed against it at every size.
func commonNodesMap(a, b Path) []rdf.Term {
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

// randomPath draws n nodes from a small pool of labels spanning all
// three term kinds, so duplicates within a path and same-label
// different-kind collisions across paths both occur.
func randomPath(rng *rand.Rand, n int) Path {
	pool := []rdf.Term{
		rdf.NewIRI("a"), rdf.NewIRI("b"), rdf.NewIRI("c"), rdf.NewIRI("d"),
		rdf.NewLiteral("a"), rdf.NewLiteral("x"),
		rdf.NewVar("v1"), rdf.NewVar("v2"), rdf.NewVar("a"),
	}
	p := Path{Nodes: make([]rdf.Term, n)}
	for i := range p.Nodes {
		p.Nodes[i] = pool[rng.Intn(len(pool))]
	}
	return p
}

// TestCommonNodesLinearEquivalence pins the small-path linear scan to
// the map implementation: identical elements in identical order, for
// every size combination straddling the smallPathNodes cutoff.
func TestCommonNodesLinearEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		na, nb := rng.Intn(smallPathNodes+4), rng.Intn(smallPathNodes+4)
		a, b := randomPath(rng, na), randomPath(rng, nb)
		got := CommonNodes(a, b)
		want := commonNodesMap(a, b)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: CommonNodes(%v, %v) = %v, map path gives %v",
				trial, a.Nodes, b.Nodes, got, want)
		}
	}
}

// TestCommonNodesSmallDirect exercises commonNodesSmall directly (the
// public entry point only routes to it under the cutoff) against the
// map path on sizes past the cutoff too.
func TestCommonNodesSmallDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		a, b := randomPath(rng, rng.Intn(14)), randomPath(rng, rng.Intn(14))
		got := commonNodesSmall(a, b)
		want := commonNodesMap(a, b)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: commonNodesSmall(%v, %v) = %v, want %v",
				trial, a.Nodes, b.Nodes, got, want)
		}
	}
}

// TestCommonNodesKindSensitivity guards the fast path against label-only
// comparison: an IRI and a literal with the same label must not match.
func TestCommonNodesKindSensitivity(t *testing.T) {
	a := Path{Nodes: []rdf.Term{rdf.NewIRI("a")}}
	b := Path{Nodes: []rdf.Term{rdf.NewLiteral("a")}}
	if got := CommonNodes(a, b); len(got) != 0 {
		t.Fatalf("IRI a vs literal a: got %v, want empty", got)
	}
}
