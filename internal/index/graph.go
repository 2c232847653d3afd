package index

import "sama/internal/rdf"

// idGraph is the indexed data graph in term IDs, the graph InsertTriples
// re-enumerates the affected paths of. A node's term and an edge's label
// are dictionary IDs, interned when the graph first holds the term (see
// graphOf and applyTriplesLocked), so the walk reads a path's IDs
// straight from the columns.
type idGraph struct {
	nodeTerm []uint32 // per node, its term's ID
	from, to []rdf.NodeID
	label    []uint32 // per edge, its label's ID
	out, in  [][]rdf.EdgeID
	node     map[uint32]rdf.NodeID // the node whose term's ID is the key
}

// graphOf returns the graph of src in the IDs of d, with its node and
// edge IDs, interning into d first every edge label in edge order, then
// every node's term in node order — for a graph built from triples, each
// edge's subject and object in edge order. The labels, the few terms
// every path repeats, take the shortest IDs. Build copies the graph it
// indexes through it, and Compact the index's graph, spelt out through
// the old dictionary.
func graphOf(src *rdf.Graph, d *Dictionary) *idGraph {
	n, m := src.NodeCount(), src.EdgeCount()
	g := &idGraph{nodeTerm: make([]uint32, 0, n), from: make([]rdf.NodeID, 0, m), to: make([]rdf.NodeID, 0, m), label: make([]uint32, 0, m),
		out: make([][]rdf.EdgeID, 0, n), in: make([][]rdf.EdgeID, 0, n), node: make(map[uint32]rdf.NodeID, n)}
	labels := make([]uint32, m)
	for e := range rdf.EdgeID(m) {
		labels[e] = d.ID(src.Edge(e).Label)
	}
	for v := range rdf.NodeID(n) {
		g.addNode(d, src.Term(v))
	}
	for e := range rdf.EdgeID(m) {
		x := src.Edge(e)
		g.addEdge(x.From, x.To, labels[e])
	}
	return g
}

// NodeCount, Out and Target are what paths.Stream walks.
func (g *idGraph) NodeCount() int                 { return len(g.nodeTerm) }
func (g *idGraph) Out(v rdf.NodeID) []rdf.EdgeID  { return g.out[v] }
func (g *idGraph) Target(e rdf.EdgeID) rdf.NodeID { return g.to[e] }
func (g *idGraph) roots() []rdf.NodeID            { return rdf.PathRoots(g.out, g.in) }

// hasSource reports whether some node has out-edges and no in-edge: the
// graph's roots are then its sources, and otherwise its hubs.
func (g *idGraph) hasSource() bool {
	for v := range g.out {
		if len(g.in[v]) == 0 && len(g.out[v]) > 0 {
			return true
		}
	}
	return false
}

// addNode returns the node labelled t, interning t into d and adding the
// node if there is none.
func (g *idGraph) addNode(d *Dictionary, t rdf.Term) rdf.NodeID {
	id := d.ID(t)
	if v, ok := g.node[id]; ok {
		return v
	}
	v := rdf.NodeID(len(g.nodeTerm))
	g.node[id], g.nodeTerm = v, append(g.nodeTerm, id)
	g.out, g.in = append(g.out, nil), append(g.in, nil)
	return v
}

// addEdge adds the edge from → to labelled by the term ID unless the
// graph has it, and reports whether it did.
func (g *idGraph) addEdge(from, to rdf.NodeID, label uint32) bool {
	short := g.out[from]
	if len(g.in[to]) < len(short) {
		short = g.in[to]
	}
	for _, e := range short {
		if g.from[e] == from && g.to[e] == to && g.label[e] == label {
			return false
		}
	}
	e := rdf.EdgeID(len(g.from))
	g.from, g.to, g.label = append(g.from, from), append(g.to, to), append(g.label, label)
	g.out[from], g.in[to] = append(g.out[from], e), append(g.in[to], e)
	return true
}

// graphMark is a point in the history of a graph and its dictionary,
// their node, edge and term counts, for undo.
type graphMark struct{ nodes, edges, terms int }

// undo returns the graph and d to the mark, the rollback of a failed
// insert. Both only grow between compactions, so it truncates them: an
// edge is the last of its out- and in-lists once every later edge is
// gone.
func (g *idGraph) undo(m graphMark, d *Dictionary) {
	for e := len(g.from) - 1; e >= m.edges; e-- {
		from, to := g.from[e], g.to[e]
		g.out[from], g.in[to] = g.out[from][:len(g.out[from])-1], g.in[to][:len(g.in[to])-1]
	}
	g.from, g.to, g.label = g.from[:m.edges], g.to[:m.edges], g.label[:m.edges]
	for _, id := range g.nodeTerm[m.nodes:] {
		delete(g.node, id)
	}
	g.nodeTerm, g.out, g.in = g.nodeTerm[:m.nodes], g.out[:m.nodes], g.in[:m.nodes]
	d.truncate(m.terms)
}

// materialise returns the graph in terms, with its node and edge IDs.
func (g *idGraph) materialise(d *Dictionary) *rdf.Graph {
	r := rdf.NewGraph()
	for _, id := range g.nodeTerm {
		r.AddNode(d.terms[id])
	}
	for e, id := range g.label {
		r.AddEdge(g.from[e], g.to[e], d.terms[id])
	}
	return r
}
