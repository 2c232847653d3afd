package index

import "sama/internal/rdf"

// idGraph is the indexed data graph in term IDs, the graph InsertTriples
// re-enumerates the affected paths of. A node's term and an edge's label
// are dictionary IDs, interned when the graph first holds the term (see
// addTriple), so the walk reads a path's IDs straight from the columns.
type idGraph struct {
	nodeTerm []uint32 // per node, its term's ID
	from, to []rdf.NodeID
	label    []uint32 // per edge, its label's ID
	out, in  [][]rdf.EdgeID
	node     map[uint32]rdf.NodeID // the node whose term's ID is the key
}

// newIDGraph returns an empty graph, with room for n nodes and m edges,
// and an empty dictionary with room for n terms.
func newIDGraph(n, m int) (*idGraph, *Dictionary) {
	g := &idGraph{nodeTerm: make([]uint32, 0, n), from: make([]rdf.NodeID, 0, m), to: make([]rdf.NodeID, 0, m), label: make([]uint32, 0, m),
		out: make([][]rdf.EdgeID, 0, n), in: make([][]rdf.EdgeID, 0, n), node: make(map[uint32]rdf.NodeID, n)}
	return g, &Dictionary{ids: make(map[rdf.Term]uint32, n), terms: make([]rdf.Term, 0, n)}
}

// addTriple adds t to the graph, interning into d its subject, then its
// object, then its predicate as it first holds them, and returns the
// subject's and the object's nodes. Build, every insert and WAL replay
// add their triples through it.
func (g *idGraph) addTriple(d *Dictionary, t rdf.Triple) (s, o rdf.NodeID) {
	s, o = g.addNode(d, t.S), g.addNode(d, t.O)
	g.addEdge(s, o, d.ID(t.P))
	return s, o
}

// renumber returns a fresh dictionary of the graph's terms by the ID
// rule — the edge labels first, in edge order, so that the few terms
// every path repeats take the shortest IDs, then the node terms, in node
// order — and points the graph at new term columns and a new node map in
// its IDs. The dictionary shares old's analysed labels, which no one
// writes, for a prefix of its IDs; it writes neither old nor the columns
// and map it replaces, so Compact renumbers a shallow copy of the index's
// graph while the index serves queries from the original.
func (g *idGraph) renumber(old *Dictionary) *Dictionary {
	d := &Dictionary{ids: make(map[rdf.Term]uint32, old.Len()), terms: make([]rdf.Term, 0, old.Len()),
		analysed: append(old.analysed[:0:0], old.analysed...)[:0]} // room to take over old's
	next := make([]uint32, old.Len()) // an old ID's new ID plus one, 0 before it has one
	move := func(id uint32) uint32 {
		if next[id] == 0 {
			next[id] = d.ID(old.terms[id]) + 1
			if int(id) < len(old.analysed) && len(d.analysed)+1 == d.Len() {
				d.analysed = append(d.analysed, old.analysed[id])
			}
		}
		return next[id] - 1
	}
	label, nodeTerm := make([]uint32, len(g.label)), make([]uint32, len(g.nodeTerm))
	for e, id := range g.label {
		label[e] = move(id)
	}
	g.node = make(map[uint32]rdf.NodeID, len(nodeTerm))
	for v, id := range g.nodeTerm {
		nodeTerm[v] = move(id)
		g.node[nodeTerm[v]] = rdf.NodeID(v)
	}
	g.label, g.nodeTerm = label, nodeTerm
	return d
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
