package textindex

import (
	"math"
	"testing"

	"sama/internal/datasets"
	"sama/internal/paths"
	"sama/internal/rdf"
)

// benchBaseLabels builds the label postings of the benchmark's 50 k
// LUBM base (the first 50 000 of 55 000 generated triples, data seed 1,
// the benchmark thesaurus): every path the index's default budget walks,
// numbered in walk order, added under each of its node and edge labels.
// It returns the index and the path count.
func benchBaseLabels(b *testing.B) (*Index, uint32) {
	ts := datasets.LUBM{}.Generate(55000, 1).Triples()[:50000]
	g, err := rdf.NewGraphFromTriples(ts)
	if err != nil {
		b.Fatal(err)
	}
	ix := New(BenchmarkThesaurus())
	analysed := map[string]*Analysed{}
	var id uint32
	add := func(label string) {
		a := analysed[label]
		if a == nil {
			x := Analyse(label)
			a = &x
			analysed[label] = a
		}
		ix.AddAnalysed(a, id)
	}
	err = paths.Stream(g, g.PathRoots(), paths.DefaultConfig, func(nodes []rdf.NodeID, edges []rdf.EdgeID) error {
		for _, v := range nodes {
			add(g.Term(v).Label())
		}
		for _, e := range edges {
			add(g.Edge(e).Label.Label())
		}
		id++
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return ix, id
}

// BenchmarkPostings times the postings layer alone on three lists of the
// benchmark's 50 k base: publication (the token list of 76 % of the
// paths), type (the exact list of 60 %) and graduatecourse (an exact
// list of 4 %, all delta blocks). appendto decodes the whole list
// (ns/doc); seekge leapfrogs every 16th path ID through the list
// (ns/cand), and contains probes the same IDs one by one (ns/probe).
func BenchmarkPostings(b *testing.B) {
	ix, npaths := benchBaseLabels(b)
	var cands []uint32
	for id := uint32(0); id < npaths; id += 16 {
		cands = append(cands, id)
	}
	for _, l := range []struct {
		name string
		p    *Postings
	}{
		{"publication", ix.tokens["publication"]},
		{"type", ix.exact["type"]},
		{"graduatecourse", ix.exact["graduatecourse"]},
	} {
		p := l.p
		b.Run(l.name+"/appendto", func(b *testing.B) {
			dst := make([]uint32, 0, p.Len())
			for range b.N {
				dst = p.AppendTo(dst[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.Len()), "ns/doc")
		})
		b.Run(l.name+"/seekge", func(b *testing.B) {
			dst := make([]uint32, 0, len(cands))
			for range b.N {
				dst = leapfrog(dst[:0], &sliceIter[uint32]{cands}, []*unionIter{newUnionIter([]*Postings{p})}, math.MaxInt)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cands)), "ns/cand")
		})
		b.Run(l.name+"/contains", func(b *testing.B) {
			hits := 0
			for range b.N {
				for _, c := range cands {
					if p.Contains(c) {
						hits++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cands)), "ns/probe")
		})
	}
}
