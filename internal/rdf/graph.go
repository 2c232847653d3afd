package rdf

import (
	"fmt"
	"io"
)

// NodeID identifies a node within one Graph. IDs are dense, starting at 0,
// and are assigned in insertion order.
type NodeID int32

// EdgeID identifies an edge within one Graph, dense and insertion-ordered.
type EdgeID int32

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Edge is one labelled directed edge of a graph.
type Edge struct {
	ID    EdgeID
	From  NodeID
	To    NodeID
	Label Term
}

// Graph is an in-memory labelled directed graph over RDF terms
// (Definition 1). Nodes are identified by their term: adding the same
// term twice yields the same node. Multiple edges between the same pair
// of nodes are allowed as long as their labels differ.
//
// Graph is not safe for concurrent mutation; concurrent readers are fine
// once construction is complete.
type Graph struct {
	nodes   []Term
	nodeIdx map[Term]NodeID
	edges   []Edge
	edgeSet map[edgeKey]EdgeID
	out     [][]EdgeID
	in      [][]EdgeID
}

type edgeKey struct {
	from, to NodeID
	label    Term
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodeIdx: make(map[Term]NodeID),
		edgeSet: make(map[edgeKey]EdgeID),
	}
}

// NewGraphFromTriples builds a graph from a slice of triples, validating
// each with Triple.Valid.
func NewGraphFromTriples(triples []Triple) (*Graph, error) { return ReadGraph(Stream(triples)) }

// ReadGraph builds a graph of the triples next returns (see Each).
func ReadGraph(next func() (Triple, error)) (*Graph, error) {
	g := NewGraph()
	if err := Each(next, func(t Triple) { g.AddTriple(t) }); err != nil {
		return nil, err
	}
	return g, nil
}

// Each calls fn with every triple next returns before io.EOF, checked
// with Triple.Valid first. It stops at next's first error, which it
// returns as it is, or at the first triple that is not valid, which it
// names by its position in the stream.
func Each(next func() (Triple, error), fn func(Triple)) error {
	for i := 0; ; i++ {
		t, err := next()
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		case t.Valid() != nil:
			return fmt.Errorf("triple %d: %w", i, t.Valid())
		}
		fn(t)
	}
}

// Stream returns a stream of ts, one triple per call and io.EOF after
// the last.
func Stream(ts []Triple) func() (Triple, error) {
	return func() (t Triple, err error) {
		if len(ts) == 0 {
			return t, io.EOF
		}
		t, ts = ts[0], ts[1:]
		return t, nil
	}
}

// AddNode inserts a node labelled by term and returns its ID; if the term
// is already present the existing ID is returned.
func (g *Graph) AddNode(term Term) NodeID {
	if id, ok := g.nodeIdx[term]; ok {
		return id
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, term)
	g.nodeIdx[term] = id
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddEdge inserts a directed edge from → to with the given label and
// returns its ID; a duplicate (from, to, label) gets the existing ID.
func (g *Graph) AddEdge(from, to NodeID, label Term) EdgeID {
	k := edgeKey{from, to, label}
	if id, ok := g.edgeSet[k]; ok {
		return id
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Label: label})
	g.edgeSet[k] = id
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// AddTriple inserts the statement (s, p, o) as two nodes and an edge and
// returns the edge ID.
func (g *Graph) AddTriple(t Triple) EdgeID {
	s := g.AddNode(t.S)
	o := g.AddNode(t.O)
	return g.AddEdge(s, o, t.P)
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// Term returns the term labelling node id.
func (g *Graph) Term(id NodeID) Term { return g.nodes[id] }

// Label returns the label string of node id (Term.Label).
func (g *Graph) Label(id NodeID) string { return g.nodes[id].Label() }

// NodeByTerm returns the node labelled by term, or InvalidNode.
func (g *Graph) NodeByTerm(term Term) NodeID {
	if id, ok := g.nodeIdx[term]; ok {
		return id
	}
	return InvalidNode
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Target returns the node edge id enters.
func (g *Graph) Target(id EdgeID) NodeID { return g.edges[id].To }

// Out returns the IDs of the edges leaving node id. The returned slice is
// owned by the graph and must not be mutated.
func (g *Graph) Out(id NodeID) []EdgeID { return g.out[id] }

// In returns the IDs of the edges entering node id. The returned slice is
// owned by the graph and must not be mutated.
func (g *Graph) In(id NodeID) []EdgeID { return g.in[id] }

// OutDegree returns the number of edges leaving node id.
func (g *Graph) OutDegree(id NodeID) int { return len(g.out[id]) }

// InDegree returns the number of edges entering node id.
func (g *Graph) InDegree(id NodeID) int { return len(g.in[id]) }

// Nodes iterates all node IDs in insertion order, calling fn for each;
// iteration stops early if fn returns false.
func (g *Graph) Nodes(fn func(NodeID) bool) {
	for i := range g.nodes {
		if !fn(NodeID(i)) {
			return
		}
	}
}

// Edges iterates all edges in insertion order, calling fn for each;
// iteration stops early if fn returns false.
func (g *Graph) Edges(fn func(Edge) bool) {
	for _, e := range g.edges {
		if !fn(e) {
			return
		}
	}
}

// Triples materialises the graph back into a slice of triples in edge
// insertion order.
func (g *Graph) Triples() []Triple {
	ts := make([]Triple, len(g.edges))
	for i, e := range g.edges {
		ts[i] = Triple{S: g.nodes[e.From], P: e.Label, O: g.nodes[e.To]}
	}
	return ts
}

// Sources returns the nodes with no incoming edges, in ID order. In the
// paper, sources are the starting points of the path decomposition.
func (g *Graph) Sources() []NodeID { return Sources(g.out, g.in) }

// Sinks returns the nodes with no outgoing edges, in ID order.
func (g *Graph) Sinks() []NodeID { return Sources(g.in, g.out) }

// PathRoots returns the path starting points of the graph: its sources,
// or — when the graph is sourceless (e.g. strongly connected) — its hubs.
func (g *Graph) PathRoots() []NodeID { return PathRoots(g.out, g.in) }

// Sources returns, in ID order, the nodes with out-edges and no
// in-edges of the graph whose out- and in-edge lists are out and in.
func Sources(out, in [][]EdgeID) []NodeID {
	var srcs []NodeID
	for i := range out {
		if len(in[i]) == 0 && len(out[i]) > 0 {
			srcs = append(srcs, NodeID(i))
		}
	}
	return srcs
}

// Hubs returns the nodes whose out-degree minus in-degree is maximal
// (§3.2) in the graph whose out- and in-edge lists are out and in: when a
// graph has no source, hubs are promoted to act as path starting points.
// The result is in ID order and is empty only for the empty graph.
func Hubs(out, in [][]EdgeID) []NodeID {
	if len(out) == 0 {
		return nil
	}
	best := len(out[0]) - len(in[0])
	for i := 1; i < len(out); i++ {
		best = max(best, len(out[i])-len(in[i]))
	}
	var hubs []NodeID
	for i := range out {
		if len(out[i])-len(in[i]) == best {
			hubs = append(hubs, NodeID(i))
		}
	}
	return hubs
}

// PathRoots is Graph.PathRoots over the graph whose out- and in-edge
// lists are out and in.
func PathRoots(out, in [][]EdgeID) []NodeID {
	if srcs := Sources(out, in); len(srcs) > 0 {
		return srcs
	}
	return Hubs(out, in)
}

// Clone returns a deep copy of the graph, with its node and edge IDs.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	for _, t := range g.nodes {
		c.AddNode(t)
	}
	for _, e := range g.edges {
		c.AddEdge(e.From, e.To, e.Label)
	}
	return c
}

// String summarises the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d}", len(g.nodes), len(g.edges))
}
