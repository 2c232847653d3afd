package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/rdf"
	"sama/internal/workload"
)

var update = flag.Bool("update", false,
	"rewrite the golden files under testdata/")

// fingerprint renders one answer into a line covering everything a
// caller can observe: scores (shortest round-trip formatting, so equal
// lines mean equal bits), the sorted substitution, the matched data
// paths and the missing query paths (keys quoted: they carry 0x1e/0x1f
// separators).
func fingerprint(a Answer) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "score=%s lambda=%s psi=%s degree=%s", f(a.Score), f(a.Lambda), f(a.Psi), f(a.Degree))
	vars := make([]string, 0, len(a.Subst))
	for v := range a.Subst {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		fmt.Fprintf(&b, " %s=%s", v, a.Subst[v].String())
	}
	for _, pr := range a.Pairs {
		fmt.Fprintf(&b, " pair[%q->%q]", pr.Query.Key(), pr.Data.Key())
	}
	for _, m := range a.Missing {
		fmt.Fprintf(&b, " miss[%q]", m.Key())
	}
	return b.String()
}

// planCounters renders the explain plan's decision counters — every
// phase and its per-query-path children — on one line. batched_pages is
// left out: it counts pages of the on-disk layout, which a change of
// record format or page fill moves without changing any decision.
func planCounters(p *obs.Plan) string {
	var b strings.Builder
	var node func(n *obs.PlanNode)
	node = func(n *obs.PlanNode) {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			if k != "batched_pages" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		b.WriteString(n.Name + "{")
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%d", k, n.Attrs[k])
		}
		b.WriteByte('}')
	}
	for i, ph := range p.Phases {
		if i > 0 {
			b.WriteByte(' ')
		}
		node(ph)
		for _, c := range ph.Children {
			b.WriteByte(' ')
			node(c)
		}
	}
	return b.String()
}

type goldenQuery struct {
	id string
	q  *rdf.QueryGraph
}

// goldenLines runs every query once through the engine, in order, and
// renders one plan line plus one line per ranked answer. Running each
// query exactly once matters: the alignment memo carries over between
// queries sharing path shapes, so the memo_hits counters are a function
// of the sequence. Every align[i] node's counters are checked on the
// way (checkAlignCounters).
func goldenLines(t *testing.T, e *Engine, qs []goldenQuery, k int) ([]string, []*obs.Plan) {
	t.Helper()
	var lines []string
	var plans []*obs.Plan
	for _, gq := range qs {
		answers, st, err := e.QueryWithStats(gq.q, k)
		if err != nil {
			t.Fatalf("%s: %v", gq.id, err)
		}
		plan := st.Plan()
		plans = append(plans, plan)
		for _, ph := range plan.Phases {
			for _, c := range ph.Children {
				if ph.Name == "cluster" {
					checkAlignCounters(t, gq.id+" "+c.Name, c.Attrs)
				}
			}
		}
		lines = append(lines, fmt.Sprintf("%s plan %s", gq.id, planCounters(plan)))
		for i, a := range answers {
			lines = append(lines, fmt.Sprintf("%s #%d %s", gq.id, i, fingerprint(a)))
		}
	}
	return lines, plans
}

// checkAlignCounters checks an align[i] node's memo and alignment
// counters: a miss has memo_hits = 0 and 1 ≤ aligned ≤ preranked, a hit
// memo_hits = preranked and aligned = 0.
func checkAlignCounters(t *testing.T, id string, a map[string]int64) {
	t.Helper()
	miss := a["memo_hits"] == 0 && a["aligned"] >= 1 && a["aligned"] <= a["preranked"]
	hit := a["memo_hits"] == a["preranked"] && a["aligned"] == 0
	if !miss && !hit {
		t.Errorf("%s: %v, want memo_hits = 0 and 1 ≤ aligned ≤ preranked, or memo_hits = preranked and aligned = 0", id, a)
	}
}

// checkGolden compares the lines to testdata/<name>, reporting the
// first diverging line. Under -update it rewrites the file first.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/core -update to write it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Errorf("%s line %d diverged:\n  got:  %s\n  want: %s", name, i+1, g, w)
			return
		}
	}
}

// TestEquivalenceAcrossEngines is the equivalence suite of the cluster
// and search phases: over the Figure 7 LUBM workload mix the engine must
// produce ranked answers and explain counters byte-identical to
// testdata/equivalence_lubm.golden. The answers in that file were frozen
// from the align-everything cluster loop and the recompute-per-visit
// search frontier this engine replaced (DESIGN.md §13 says how), so it
// is an external reference, not a self-comparison. The tight cluster cap forces the signature
// frontier cut on every large cluster and keeps per-cluster frontiers
// rich, so the cut, the search loop, the tie horizon and the join pass
// all engage. Runs under -race via make check's race-hot pass.
func TestEquivalenceAcrossEngines(t *testing.T) {
	g := datasets.LUBM{}.Generate(6000, 7)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var qs []goldenQuery
	for _, q := range workload.LUBMQueries() {
		qs = append(qs, goldenQuery{id: q.ID, q: q.Pattern})
	}

	lines, _ := goldenLines(t, New(ix, Options{MaxCandidatesPerCluster: 16}), qs, 10)
	checkGolden(t, "equivalence_lubm.golden", lines)
	// The suite is vacuous unless the signature gate cut a frontier
	// somewhere in the mix.
	if !strings.Contains(strings.Join(lines, "\n"), "sig_rejected=") {
		t.Error("no query in the mix triggered the signature frontier cut")
	}
}

// firstAlignAttrs returns the decision counters of the plan's align[0]
// node, the cluster pass of the first query path.
func firstAlignAttrs(t *testing.T, label string, plan *obs.Plan) map[string]int64 {
	t.Helper()
	for _, ph := range plan.Phases {
		if ph.Name == "cluster" && len(ph.Children) > 0 {
			return ph.Children[0].Attrs
		}
	}
	t.Fatalf("%s: no align[0] node in the plan", label)
	return nil
}

// TestCraftedClustersMatchGoldens runs one three-node query path,
// ?v -r-> Hub -s-> Sink, over two graphs of 24 paths ending at Sink:
// sixteen exact matches A_i -r-> Hub -s-> Sink plus eight decoys, under
// a cap that keeps the pre-rank from cutting (budget = 2·cap ≥ 24).
//
//   - prune: the decoys are full-length D_j -t-> E_j -u-> Sink (cost
//     A+2C or more), cap 12 — the cap drops them after ranking.
//   - short: the decoys are two-node X_j -s-> Sink, cap 20 — sixteen
//     full-length items exist, so the shorter-path fallback stays dead
//     and the assembly drops them.
//
// The golden answers were frozen from an engine that aligned all 24
// candidates; the cluster pass must reproduce them, aligning every
// pre-ranked candidate the memo does not already hold.
func TestCraftedClustersMatchGoldens(t *testing.T) {
	cases := []struct {
		name   string
		golden string
		cap, k int
		decoy  func(g *rdf.Graph, j int)
	}{
		{"prune", "equivalence_prune.golden", 12, 12, func(g *rdf.Graph, j int) {
			d, e := iri(fmt.Sprintf("D%02d", j)), iri(fmt.Sprintf("E%02d", j))
			g.AddTriple(rdf.Triple{S: d, P: iri("t"), O: e})
			g.AddTriple(rdf.Triple{S: e, P: iri("u"), O: iri("Sink")})
		}},
		{"short", "equivalence_short.golden", 20, 16, func(g *rdf.Graph, j int) {
			g.AddTriple(rdf.Triple{S: iri(fmt.Sprintf("X%02d", j)), P: iri("s"), O: iri("Sink")})
		}},
	}
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("v"), P: iri("r"), O: iri("Hub")})
	q.AddTriple(rdf.Triple{S: iri("Hub"), P: iri("s"), O: iri("Sink")})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := rdf.NewGraph()
			for i := 0; i < 16; i++ {
				g.AddTriple(rdf.Triple{S: iri(fmt.Sprintf("A%02d", i)), P: iri("r"), O: iri("Hub")})
			}
			g.AddTriple(rdf.Triple{S: iri("Hub"), P: iri("s"), O: iri("Sink")})
			for j := 0; j < 8; j++ {
				tc.decoy(g, j)
			}
			ix, err := index.Build(filepath.Join(t.TempDir(), "mono"), g, index.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()

			e := New(ix, Options{MaxCandidatesPerCluster: tc.cap})
			lines, plans := goldenLines(t, e, []goldenQuery{{"crafted", q}}, tc.k)
			checkGolden(t, tc.golden, lines)
			checkAlignCounters(t, tc.name, firstAlignAttrs(t, tc.name, plans[0]))
		})
	}
}
