package paths

import "sama/internal/rdf"

// Config bounds the path enumeration. Real RDF graphs can contain an
// exponential number of source-to-sink paths, so production indexing
// needs explicit budgets; the zero value means “no bound” for each field.
type Config struct {
	// MaxLength bounds the number of nodes per path (0 = unbounded).
	MaxLength int
	// MaxPerRoot bounds the number of paths enumerated from each
	// source/hub (0 = unbounded).
	MaxPerRoot int
}

// DefaultConfig is the budget used by the indexer: it keeps path counts
// proportional to the Table 1 |HE|/triples ratios on the benchmark
// generators.
var DefaultConfig = Config{MaxLength: 12, MaxPerRoot: 4096}

// Graph is the read-only view of a graph the walker needs: its node
// count, each node's out-edges and each edge's target. *rdf.Graph
// satisfies it, and so does the index's graph of term IDs.
type Graph interface {
	NodeCount() int
	Out(rdf.NodeID) []rdf.EdgeID
	Target(rdf.EdgeID) rdf.NodeID
}

// Enumerate returns every source-to-sink path of g within the budgets of
// cfg, traversing from all path roots (sources, or hubs when the graph is
// sourceless, §3.2). The result is deterministic: paths are grouped by
// root in root-ID order, and within one root follow edge insertion order.
func Enumerate(g *rdf.Graph, cfg Config) []Path {
	var out []Path
	Stream(g, g.PathRoots(), cfg, func(nodes []rdf.NodeID, edges []rdf.EdgeID) error {
		p := Path{Nodes: make([]rdf.Term, len(nodes)), Edges: make([]rdf.Term, len(edges))}
		for i, id := range nodes {
			p.Nodes[i] = g.Term(id)
		}
		for i, id := range edges {
			p.Edges[i] = g.Edge(id).Label
		}
		out = append(out, p)
		return nil
	})
	return out
}

// Walker is the depth-first path traversal. It reuses its stack, ID
// slices and on-path marks (one per graph node) from root to root.
type Walker struct {
	stack  []frame
	nodes  []rdf.NodeID
	edges  []rdf.EdgeID
	onPath []bool
}

type frame struct {
	node     rdf.NodeID
	edges    []rdf.EdgeID // remaining out-edges to try
	extended bool         // whether any child was pushed from here
}

// WalkFrom calls emit with each path of g starting at root, in edge
// insertion order, within the cfg budgets, as node and edge IDs valid
// until emit returns. A path ends when it reaches a node with no outgoing
// edges, when extending it would revisit a node already on the path
// (cycle breaking), or when MaxLength is reached.
func (w *Walker) WalkFrom(g Graph, root rdf.NodeID, cfg Config, emit func(nodes []rdf.NodeID, edges []rdf.EdgeID)) {
	if n := g.NodeCount(); len(w.onPath) < n {
		w.onPath = make([]bool, n)
	}
	push := func(n rdf.NodeID) {
		w.stack = append(w.stack, frame{node: n, edges: g.Out(n)})
		w.nodes = append(w.nodes, n)
		w.onPath[n] = true
	}
	emitted := 0
	push(root)
	for len(w.stack) > 0 {
		if cfg.MaxPerRoot > 0 && emitted >= cfg.MaxPerRoot {
			break
		}
		top := &w.stack[len(w.stack)-1]
		// Find the next viable extension of the current path.
		var extended bool
		for len(top.edges) > 0 {
			eid := top.edges[0]
			top.edges = top.edges[1:]
			to := g.Target(eid)
			if w.onPath[to] {
				continue // breaking a cycle truncates this branch
			}
			if cfg.MaxLength > 0 && len(w.nodes) >= cfg.MaxLength {
				continue
			}
			w.edges = append(w.edges, eid)
			top.extended = true
			push(to)
			extended = true
			break
		}
		if extended {
			continue
		}
		// No extension left. If no child was ever pushed from this node,
		// the path ending here is maximal (a true sink, a cycle cut, or a
		// length cut): emit it, provided it contains at least one edge.
		if !top.extended && len(w.nodes) > 1 {
			emit(w.nodes, w.edges)
			emitted++
		}
		// Pop.
		w.onPath[top.node] = false
		w.stack = w.stack[:len(w.stack)-1]
		w.nodes = w.nodes[:len(w.nodes)-1]
		if len(w.edges) > 0 {
			w.edges = w.edges[:len(w.edges)-1]
		}
	}
	for _, n := range w.nodes { // a MaxPerRoot stop leaves a path on the stack
		w.onPath[n] = false
	}
	w.stack, w.nodes, w.edges = w.stack[:0], w.nodes[:0], w.edges[:0]
}

// Stream calls emit with the paths of g from each of roots in turn —
// Enumerate's paths, in its order, when roots is g's path roots — as node
// and edge IDs valid until emit returns. The first error emit returns
// stops the stream and is returned.
func Stream(g Graph, roots []rdf.NodeID, cfg Config, emit func(nodes []rdf.NodeID, edges []rdf.EdgeID) error) error {
	var w Walker
	var err error
	for i := 0; i < len(roots) && err == nil; i++ {
		w.WalkFrom(g, roots[i], cfg, func(nodes []rdf.NodeID, edges []rdf.EdgeID) {
			if err == nil {
				err = emit(nodes, edges)
			}
		})
	}
	return err
}

// Decompose returns the paths PQ of a query graph Q (§5, Preprocessing):
// all paths from each source to any sink, unbudgeted except for cycle
// breaking. Queries are small, so no explosion control is needed.
func Decompose(q *rdf.QueryGraph) []Path {
	return Enumerate(&q.Graph, Config{})
}
