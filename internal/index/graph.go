package index

import "sama/internal/rdf"

// pendingRef marks a ref to pending term ref &^ pendingRef; any other
// ref is 1 + a dictionary ID.
const pendingRef = 1 << 31

// idGraph is the indexed data graph in term IDs, the graph InsertTriples
// re-enumerates the affected paths of. A node's term and an edge's label
// are refs: 1 + the term's dictionary ID once a path has held it, which
// the walk interns it at (see intern), and until then a ref into the
// pending table, a dictionary of its own. The walk records a pending
// term's interning in pendingID and leaves every ref to it as it is, so
// two refs are equal exactly when their terms are; settle, which every
// checkpoint runs, interns what is left and empties the table.
type idGraph struct {
	nodeTerm []uint32 // per node, its term's ref
	from, to []rdf.NodeID
	label    []uint32 // per edge, its label's ref
	out, in  [][]rdf.EdgeID
	node     map[uint32]rdf.NodeID // the node whose term's ref is the key
	pending  *Dictionary
	// pendingID[i] is 1 + pending term i's dictionary ID, 0 until interned.
	pendingID []uint32
}

// graphOf returns the graph of src, with its node and edge IDs and every
// term pending: Build copies the graph it indexes through it, and Compact
// the index's graph, spelt out through the old dictionary.
func graphOf(src *rdf.Graph) *idGraph {
	n, m := src.NodeCount(), src.EdgeCount()
	g := &idGraph{nodeTerm: make([]uint32, 0, n), from: make([]rdf.NodeID, 0, m), to: make([]rdf.NodeID, 0, m), label: make([]uint32, 0, m),
		out: make([][]rdf.EdgeID, 0, n), in: make([][]rdf.EdgeID, 0, n), node: make(map[uint32]rdf.NodeID, n), pending: NewDictionary()}
	none := new(Dictionary)
	for v := range rdf.NodeID(n) {
		g.addNode(none, src.Term(v))
	}
	for e := range rdf.EdgeID(m) {
		x := src.Edge(e)
		g.addEdge(x.From, x.To, g.ref(none, x.Label))
	}
	return g
}

// NodeCount, Out and Target are what paths.Stream walks.
func (g *idGraph) NodeCount() int                 { return len(g.nodeTerm) }
func (g *idGraph) Out(v rdf.NodeID) []rdf.EdgeID  { return g.out[v] }
func (g *idGraph) Target(e rdf.EdgeID) rdf.NodeID { return g.to[e] }
func (g *idGraph) roots() []rdf.NodeID            { return rdf.PathRoots(g.out, g.in) }

func (g *idGraph) term(d *Dictionary, ref uint32) rdf.Term {
	if ref&pendingRef != 0 {
		return g.pending.terms[ref&^pendingRef]
	}
	return d.terms[ref-1]
}

// ref returns the ref of t, adding t to the pending table if neither it
// nor d holds t.
func (g *idGraph) ref(d *Dictionary, t rdf.Term) uint32 {
	if i, ok := g.pending.Lookup(t); ok {
		return pendingRef | i
	}
	if id, ok := d.Lookup(t); ok {
		return id + 1
	}
	g.pendingID = append(g.pendingID, 0)
	return pendingRef | g.pending.ID(t)
}

// addNode returns the node labelled t, adding it if there is none.
func (g *idGraph) addNode(d *Dictionary, t rdf.Term) rdf.NodeID {
	ref := g.ref(d, t)
	if v, ok := g.node[ref]; ok {
		return v
	}
	v := rdf.NodeID(len(g.nodeTerm))
	g.node[ref], g.nodeTerm = v, append(g.nodeTerm, ref)
	g.out, g.in = append(g.out, nil), append(g.in, nil)
	return v
}

// addEdge adds the edge from → to labelled by the ref unless the graph
// has it, and reports whether it did.
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

// intern returns the dictionary ID of the ref's term, interning it if it
// is pending: the refs and pendingID are the walk's memo.
func (g *idGraph) intern(d *Dictionary, ref uint32) uint32 {
	if ref&pendingRef == 0 {
		return ref - 1
	}
	i := ref &^ pendingRef
	if g.pendingID[i] == 0 {
		g.pendingID[i] = d.ID(g.pending.terms[i]) + 1
	}
	return g.pendingID[i] - 1
}

// settle interns the pending terms, the nodes' in node order and then the
// labels' in edge order, and rewrites their refs: the graph is then in
// dictionary IDs, and the pending table is empty.
func (g *idGraph) settle(d *Dictionary) {
	for v, ref := range g.nodeTerm {
		if ref&pendingRef != 0 {
			delete(g.node, ref)
			g.nodeTerm[v] = g.intern(d, ref) + 1
			g.node[g.nodeTerm[v]] = rdf.NodeID(v)
		}
	}
	for e, ref := range g.label {
		g.label[e] = g.intern(d, ref) + 1
	}
	g.pending, g.pendingID = NewDictionary(), nil
}

// graphMark is a point in the history of a graph and its dictionary,
// their node, edge, pending and dictionary term counts, for undo.
type graphMark struct{ nodes, edges, pending, terms int }

// undo returns the graph and d to the mark, the rollback of a failed
// insert. Both only grow between checkpoints, so it truncates them: an
// edge is the last of its out- and in-lists once every later edge is
// gone, and an interning the walk recorded goes with its term.
func (g *idGraph) undo(m graphMark, d *Dictionary) {
	for e := len(g.from) - 1; e >= m.edges; e-- {
		from, to := g.from[e], g.to[e]
		g.out[from], g.in[to] = g.out[from][:len(g.out[from])-1], g.in[to][:len(g.in[to])-1]
	}
	g.from, g.to, g.label = g.from[:m.edges], g.to[:m.edges], g.label[:m.edges]
	for _, ref := range g.nodeTerm[m.nodes:] {
		delete(g.node, ref)
	}
	g.nodeTerm, g.out, g.in = g.nodeTerm[:m.nodes], g.out[:m.nodes], g.in[:m.nodes]
	d.truncate(m.terms)
	g.pending.truncate(m.pending)
	g.pendingID = g.pendingID[:m.pending]
	for i, id := range g.pendingID {
		if id > uint32(m.terms) {
			g.pendingID[i] = 0
		}
	}
}

// materialise returns the graph in terms, with its node and edge IDs.
func (g *idGraph) materialise(d *Dictionary) *rdf.Graph {
	r := rdf.NewGraph()
	for _, ref := range g.nodeTerm {
		r.AddNode(g.term(d, ref))
	}
	for e, ref := range g.label {
		r.AddEdge(g.from[e], g.to[e], g.term(d, ref))
	}
	return r
}
