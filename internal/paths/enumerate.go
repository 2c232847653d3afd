package paths

import (
	"runtime"
	"sort"
	"sync"

	"sama/internal/rdf"
)

// Config bounds the path enumeration. Real RDF graphs can contain an
// exponential number of source-to-sink paths, so production indexing
// needs explicit budgets; the zero value means “no bound” for each field
// except Concurrency, which defaults to GOMAXPROCS.
type Config struct {
	// MaxLength bounds the number of nodes per path (0 = unbounded).
	MaxLength int
	// MaxPerRoot bounds the number of paths enumerated from each
	// source/hub (0 = unbounded).
	MaxPerRoot int
	// MaxTotal bounds the total number of paths returned (0 = unbounded).
	MaxTotal int
	// Concurrency is the number of worker goroutines used to traverse
	// from the roots concurrently (the paper's “independently concurrent
	// traversals started from each source”). 0 means GOMAXPROCS.
	Concurrency int
}

// DefaultConfig is the budget used by the indexer: it keeps path counts
// proportional to the Table 1 |HE|/triples ratios on the benchmark
// generators.
var DefaultConfig = Config{MaxLength: 12, MaxPerRoot: 4096, Concurrency: 0}

func (c Config) concurrency() int {
	if c.Concurrency > 0 {
		return c.Concurrency
	}
	return runtime.GOMAXPROCS(0)
}

// Graph is the read-only view of a graph the enumerator needs. Both
// *rdf.Graph and *rdf.QueryGraph satisfy it.
type Graph interface {
	NodeCount() int
	Term(rdf.NodeID) rdf.Term
	Out(rdf.NodeID) []rdf.EdgeID
	Edge(rdf.EdgeID) rdf.Edge
	PathRoots() []rdf.NodeID
}

// Enumerate returns every source-to-sink path of g within the budgets of
// cfg, traversing from all path roots (sources, or hubs when the graph is
// sourceless, §3.2). The result is deterministic: paths are grouped by
// root in root-ID order, and within one root follow edge insertion order.
func Enumerate(g Graph, cfg Config) []Path {
	roots := g.PathRoots()
	if len(roots) == 0 {
		return nil
	}
	perRoot := make([][]Path, len(roots))
	workers := cfg.concurrency()
	if workers > len(roots) {
		workers = len(roots)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perRoot[i] = EnumerateFrom(g, roots[i], cfg)
			}
		}()
	}
	for i := range roots {
		next <- i
	}
	close(next)
	wg.Wait()

	var total int
	for _, ps := range perRoot {
		total += len(ps)
	}
	out := make([]Path, 0, total)
	for _, ps := range perRoot {
		out = append(out, ps...)
		if cfg.MaxTotal > 0 && len(out) >= cfg.MaxTotal {
			out = out[:cfg.MaxTotal]
			break
		}
	}
	return out
}

// EnumerateFrom returns the paths of g starting at root, in edge
// insertion order, within the cfg budgets. A path ends when it reaches a
// node with no outgoing edges, when extending it would revisit a node
// already on the path (cycle breaking), or when MaxLength is reached.
func EnumerateFrom(g Graph, root rdf.NodeID, cfg Config) []Path {
	type frame struct {
		node     rdf.NodeID
		edges    []rdf.EdgeID // remaining out-edges to try
		extended bool         // whether any child was pushed from here
	}
	var (
		out     []Path
		stack   []frame
		nodeIDs []rdf.NodeID
		edgeIDs []rdf.EdgeID
		onPath  = make(map[rdf.NodeID]struct{})
	)
	push := func(n rdf.NodeID) {
		stack = append(stack, frame{node: n, edges: g.Out(n)})
		nodeIDs = append(nodeIDs, n)
		onPath[n] = struct{}{}
	}
	emit := func() {
		p := Path{
			Nodes: make([]rdf.Term, len(nodeIDs)),
			Edges: make([]rdf.Term, len(edgeIDs)),
		}
		for i, id := range nodeIDs {
			p.Nodes[i] = g.Term(id)
		}
		for i, id := range edgeIDs {
			p.Edges[i] = g.Edge(id).Label
		}
		out = append(out, p)
	}
	push(root)
	for len(stack) > 0 {
		if cfg.MaxPerRoot > 0 && len(out) >= cfg.MaxPerRoot {
			break
		}
		top := &stack[len(stack)-1]
		// Find the next viable extension of the current path.
		var extended bool
		for len(top.edges) > 0 {
			eid := top.edges[0]
			top.edges = top.edges[1:]
			e := g.Edge(eid)
			if _, revisit := onPath[e.To]; revisit {
				continue // breaking a cycle truncates this branch
			}
			if cfg.MaxLength > 0 && len(nodeIDs) >= cfg.MaxLength {
				continue
			}
			edgeIDs = append(edgeIDs, eid)
			top.extended = true
			push(e.To)
			extended = true
			break
		}
		if extended {
			continue
		}
		// No extension left. If no child was ever pushed from this node,
		// the path ending here is maximal (a true sink, a cycle cut, or a
		// length cut): emit it, provided it contains at least one edge.
		if !top.extended && len(nodeIDs) > 1 {
			emit()
		}
		// Pop.
		delete(onPath, top.node)
		stack = stack[:len(stack)-1]
		nodeIDs = nodeIDs[:len(nodeIDs)-1]
		if len(edgeIDs) > 0 {
			edgeIDs = edgeIDs[:len(edgeIDs)-1]
		}
	}
	return out
}

// Decompose returns the paths PQ of a query graph Q (§5, Preprocessing):
// all paths from each source to any sink, unbudgeted except for cycle
// breaking. Queries are small, so no explosion control is needed.
func Decompose(q *rdf.QueryGraph) []Path {
	return Enumerate(q, Config{Concurrency: 1})
}

// Dedup removes duplicate paths (same Key), preserving first-occurrence
// order.
func Dedup(ps []Path) []Path {
	seen := make(map[string]struct{}, len(ps))
	out := ps[:0:0]
	for _, p := range ps {
		k := p.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, p)
	}
	return out
}

// SortByLength orders paths by decreasing length, breaking ties by Key;
// useful for deterministic test output.
func SortByLength(ps []Path) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Length() != ps[j].Length() {
			return ps[i].Length() > ps[j].Length()
		}
		return ps[i].Key() < ps[j].Key()
	})
}
