package align

import (
	"encoding/binary"
	"slices"

	"sama/internal/paths"
	"sama/internal/rdf"
)

// AppendClassKey appends to dst the class key of a data path, given as
// its dictionary term-ID run (nodes, then edges), against a query path
// whose constants — nodes, then edges, in path order — have the IDs
// consts (at most 64; one the dictionary lacks takes an ID no run
// holds): the node count, the edge IDs, and per node the mask of the
// constants it equals. The aligner reads a data label only through
// "equals this constant", but for the window tie-break (Tied), which
// also reads AppendTieKey's relation: two paths with equal keys — tie
// keys included when the alignment tied — get the same cost, counters
// and operations, with their bindings at the same positions (Bound).
func AppendClassKey(dst []byte, run, consts []uint32) []byte {
	n := (len(run) + 1) / 2
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for _, id := range run[n:] {
		dst = binary.LittleEndian.AppendUint32(dst, id)
	}
	for _, id := range run[:n] {
		var mask uint64
		for i, c := range consts {
			if c == id {
				mask |= 1 << i
			}
		}
		dst = binary.LittleEndian.AppendUint64(dst, mask)
	}
	return dst
}

// AppendTieKey appends the tie key of the same run to its class key: per
// node, related(id), the mask Related returns for the node's label.
func AppendTieKey(dst []byte, run []uint32, related func(id uint32) uint64) []byte {
	for _, id := range run[:(len(run)+1)/2] {
		dst = binary.LittleEndian.AppendUint64(dst, related(id))
	}
	return dst
}

// Tied reports whether the last Align broke a tie between equally priced
// windows.
func (g *GreedyAligner) Tied() bool { return g.tie.tied }

// Related returns the mask of q's constant nodes (bit i for the i-th)
// whose labels share a stemmed token with label: what the window
// tie-break reads of a data node label (windowAffinity).
func (g *GreedyAligner) Related(q paths.Path, label rdf.Term) uint64 {
	g.tie.stems.use(q)
	ds := stems(label.Label())
	var mask, bit uint64 = 0, 1
	for _, c := range q.Nodes {
		if c.IsConstant() {
			qs := g.tie.stems.of(c)
			if slices.ContainsFunc(ds, func(s string) bool { return slices.Contains(qs, s) }) {
				mask |= bit
			}
			bit <<= 1
		}
	}
	return mask
}
