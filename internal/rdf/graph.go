package rdf

import (
	"fmt"
	"sort"
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
func NewGraphFromTriples(triples []Triple) (*Graph, error) {
	g := NewGraph()
	for i, t := range triples {
		if err := t.Valid(); err != nil {
			return nil, fmt.Errorf("triple %d: %w", i, err)
		}
		g.AddTriple(t)
	}
	return g, nil
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
// returns its ID. Duplicate (from, to, label) edges are coalesced.
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

// Mark is a point in a graph's history that Undo returns it to.
type Mark struct{ nodes, edges int }

// Mark returns the graph's current point in its history.
func (g *Graph) Mark() Mark { return Mark{len(g.nodes), len(g.edges)} }

// Undo removes every node and edge added since m was taken, so the graph
// equals what it was then: IDs, Out and In order and both lookups. A
// graph only grows, so this is truncating its tails: an edge is the
// last of its Out and In lists once every later edge is gone.
func (g *Graph) Undo(m Mark) {
	for i := len(g.edges) - 1; i >= m.edges; i-- {
		e := g.edges[i]
		delete(g.edgeSet, edgeKey{e.From, e.To, e.Label})
		g.out[e.From] = g.out[e.From][:len(g.out[e.From])-1]
		g.in[e.To] = g.in[e.To][:len(g.in[e.To])-1]
	}
	clear(g.edges[m.edges:])
	g.edges = g.edges[:m.edges]
	for _, t := range g.nodes[m.nodes:] {
		delete(g.nodeIdx, t)
	}
	clear(g.nodes[m.nodes:])
	g.nodes, g.out, g.in = g.nodes[:m.nodes], g.out[:m.nodes], g.in[:m.nodes]
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
func (g *Graph) Sources() []NodeID {
	var srcs []NodeID
	for i := range g.nodes {
		if len(g.in[i]) == 0 && len(g.out[i]) > 0 {
			srcs = append(srcs, NodeID(i))
		}
	}
	return srcs
}

// Sinks returns the nodes with no outgoing edges, in ID order.
func (g *Graph) Sinks() []NodeID {
	var sinks []NodeID
	for i := range g.nodes {
		if len(g.out[i]) == 0 && len(g.in[i]) > 0 {
			sinks = append(sinks, NodeID(i))
		}
	}
	return sinks
}

// Hubs returns the nodes whose out-degree minus in-degree is maximal
// (§3.2): when a graph has no source, hubs are promoted to act as path
// starting points. The result is in ID order and is empty only for the
// empty graph.
func (g *Graph) Hubs() []NodeID {
	if len(g.nodes) == 0 {
		return nil
	}
	best := len(g.out[0]) - len(g.in[0])
	for i := 1; i < len(g.nodes); i++ {
		if d := len(g.out[i]) - len(g.in[i]); d > best {
			best = d
		}
	}
	var hubs []NodeID
	for i := range g.nodes {
		if len(g.out[i])-len(g.in[i]) == best {
			hubs = append(hubs, NodeID(i))
		}
	}
	return hubs
}

// PathRoots returns the path starting points of the graph: its sources,
// or — when the graph is sourceless (e.g. strongly connected) — its hubs.
func (g *Graph) PathRoots() []NodeID {
	if srcs := g.Sources(); len(srcs) > 0 {
		return srcs
	}
	return g.Hubs()
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:   append([]Term(nil), g.nodes...),
		nodeIdx: make(map[Term]NodeID, len(g.nodeIdx)),
		edges:   append([]Edge(nil), g.edges...),
		edgeSet: make(map[edgeKey]EdgeID, len(g.edgeSet)),
		out:     make([][]EdgeID, len(g.out)),
		in:      make([][]EdgeID, len(g.in)),
	}
	for k, v := range g.nodeIdx {
		c.nodeIdx[k] = v
	}
	for k, v := range g.edgeSet {
		c.edgeSet[k] = v
	}
	for i := range g.out {
		c.out[i] = append([]EdgeID(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]EdgeID(nil), g.in[i]...)
	}
	return c
}

// Subgraph returns a new graph containing only the given edges (and the
// nodes they touch). Edge IDs are renumbered.
func (g *Graph) Subgraph(edges []EdgeID) *Graph {
	sub := NewGraph()
	sorted := append([]EdgeID(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, id := range sorted {
		e := g.edges[id]
		sub.AddTriple(Triple{S: g.nodes[e.From], P: e.Label, O: g.nodes[e.To]})
	}
	return sub
}

// String summarises the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d}", len(g.nodes), len(g.edges))
}
