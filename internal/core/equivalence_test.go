package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/rdf"
	"sama/internal/shard"
	"sama/internal/workload"
)

var update = flag.Bool("update", false,
	"rewrite the golden files under testdata/ from the monolithic engine at Parallelism 1")

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
// left out: it counts pages of the on-disk layout, which differs
// between a monolithic index and a shard set holding the same paths.
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
// of the sequence.
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
		lines = append(lines, fmt.Sprintf("%s plan %s", gq.id, planCounters(plan)))
		for i, a := range answers {
			lines = append(lines, fmt.Sprintf("%s #%d %s", gq.id, i, fingerprint(a)))
		}
	}
	return lines, plans
}

// checkGolden compares the lines to testdata/<name>, reporting the
// first diverging line. Under -update the writer configuration rewrites
// the file first; every other configuration still compares against it.
func checkGolden(t *testing.T, name, label string, got []string, writer bool) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update && writer {
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
			t.Errorf("%s: %s line %d diverged:\n  got:  %s\n  want: %s", label, name, i+1, g, w)
			return
		}
	}
}

// TestEquivalenceAcrossEngines is the equivalence suite of the cluster
// and search phases: over the Figure 7 LUBM workload mix, every engine
// configuration — monolith and shard sets of 1 and 4, each at
// Parallelism 1 and 8 — must produce ranked answers and explain
// counters byte-identical to testdata/equivalence_lubm.golden. The
// answers in that file were frozen from the align-everything cluster
// loop and the recompute-per-visit search frontier this engine
// replaced (DESIGN.md §13 says how), so it is an external reference,
// not a self-comparison. The tight cluster cap forces the signature
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
	sets := map[int]*shard.Set{}
	for _, n := range []int{1, 4} {
		s, err := shard.Build(filepath.Join(t.TempDir(), fmt.Sprintf("s%d", n)), g, shard.Options{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sets[n] = s
	}
	var qs []goldenQuery
	for _, q := range workload.LUBMQueries() {
		qs = append(qs, goldenQuery{id: q.ID, q: q.Pattern})
	}

	const cap = 16
	opts := func(par int) Options { return Options{Parallelism: par, MaxCandidatesPerCluster: cap} }
	// The first entry is the one -update writes from.
	variants := []struct {
		name string
		e    *Engine
	}{
		{"monolith par=1", New(ix, opts(1))},
		{"monolith par=8", New(ix, opts(8))},
		{"shards=1 par=1", NewSharded(sets[1], opts(1))},
		{"shards=1 par=8", NewSharded(sets[1], opts(8))},
		{"shards=4 par=1", NewSharded(sets[4], opts(1))},
		{"shards=4 par=8", NewSharded(sets[4], opts(8))},
	}
	for i, v := range variants {
		lines, _ := goldenLines(t, v.e, qs, 10)
		v.e.Close()
		checkGolden(t, "equivalence_lubm.golden", v.name, lines, i == 0)
		if i > 0 {
			continue
		}
		// The suite is vacuous unless the signature gate cut a frontier
		// and a frontier successor reused its parent's pair values
		// somewhere in the mix.
		all := strings.Join(lines, "\n")
		if !strings.Contains(all, "sig_rejected=") {
			t.Error("no query in the mix triggered the signature frontier cut")
		}
		if !regexp.MustCompile(`psi_memo_hits=[1-9]`).MatchString(all) {
			t.Error("no query in the mix reused incremental pair values")
		}
	}
}

// findPlanAttr returns the first value of the attribute found on the
// node or any descendant.
func findPlanAttr(n *obs.PlanNode, key string) (int64, bool) {
	if n == nil {
		return 0, false
	}
	if v, ok := n.Attrs[key]; ok {
		return v, true
	}
	for _, c := range n.Children {
		if v, ok := findPlanAttr(c, key); ok {
			return v, true
		}
	}
	return 0, false
}

// clusterAttrs asserts decision counters on the plan's cluster phase.
func clusterAttrs(t *testing.T, label string, plan *obs.Plan, want map[string]int64) {
	t.Helper()
	var cluster *obs.PlanNode
	for _, ph := range plan.Phases {
		if ph.Name == "cluster" {
			cluster = ph
		}
	}
	if cluster == nil {
		t.Fatalf("%s: no cluster phase in the plan", label)
	}
	for key, w := range want {
		if got, ok := findPlanAttr(cluster, key); !ok || got != w {
			t.Errorf("%s: %s = %d (found %v), want %d", label, key, got, ok, w)
		}
	}
}

// TestThresholdPruningFiresAndPreservesAnswers pins the λ-bound barrier
// on a graph built so that it must fire: sixteen exact matches (cost 0,
// bound 0) fill the first alignment wave, and eight decoys sharing only
// the sink carry a λ lower bound of A+2C > 0, so the barrier proves
// they cannot beat the cap'th best (0) and skips them. The explain plan
// must say so (bound_pruned = 8, aligned = 16), and the ranked answers
// must equal testdata/equivalence_prune.golden, frozen from an engine
// that aligned all 24 — pruning only skipped work the cap discards.
func TestThresholdPruningFiresAndPreservesAnswers(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 16; i++ {
		a := iri(fmt.Sprintf("A%02d", i))
		g.AddTriple(rdf.Triple{S: a, P: iri("r"), O: iri("Hub")})
	}
	g.AddTriple(rdf.Triple{S: iri("Hub"), P: iri("s"), O: iri("Sink")})
	for j := 0; j < 8; j++ {
		d := iri(fmt.Sprintf("D%02d", j))
		e := iri(fmt.Sprintf("E%02d", j))
		g.AddTriple(rdf.Triple{S: d, P: iri("t"), O: e})
		g.AddTriple(rdf.Triple{S: e, P: iri("u"), O: iri("Sink")})
	}
	ix, err := index.Build(filepath.Join(t.TempDir(), "prune"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// ?v -r-> Hub -s-> Sink: one query path, sink retrieval returns all
	// 24 paths ending at Sink. Cap 12 → budget 24: no frontier cut, two
	// waves of max(12, minAlignChunk) = 16.
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("v"), P: iri("r"), O: iri("Hub")})
	q.AddTriple(rdf.Triple{S: iri("Hub"), P: iri("s"), O: iri("Sink")})

	e := New(ix, Options{Parallelism: 1, MaxCandidatesPerCluster: 12})
	defer e.Close()
	lines, plans := goldenLines(t, e, []goldenQuery{{"crafted", q}}, 12)
	checkGolden(t, "equivalence_prune.golden", "monolith", lines, true)
	clusterAttrs(t, "monolith", plans[0], map[string]int64{"bound_pruned": 8, "aligned": 16})
}

// TestShortCandidateBarrierFiresAndPreservesAnswers pins the
// short-candidate barrier on a graph where the λ-bound barrier cannot
// arm: sixteen full-length exact matches and eight shorter-than-query
// decoys, under a cap of 20. The first wave aligns the sixteen fulls
// plus four shorts (bound order), leaving only 16 < 20 full-length
// costs staged — the kth-cost barrier stays dark — yet one staged
// full-length item is enough to prove the shorter-path fallback dead,
// so the remaining four short misses are dropped unaligned. The plan
// must show it (short_pruned = 4, aligned = 20) and the answers must
// equal testdata/equivalence_short.golden, frozen from an engine that
// aligned all 24, on the monolith and on a two-shard build alike.
func TestShortCandidateBarrierFiresAndPreservesAnswers(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 16; i++ {
		a := iri(fmt.Sprintf("A%02d", i))
		g.AddTriple(rdf.Triple{S: a, P: iri("r"), O: iri("Hub")})
	}
	g.AddTriple(rdf.Triple{S: iri("Hub"), P: iri("s"), O: iri("Sink")})
	for j := 0; j < 8; j++ {
		x := iri(fmt.Sprintf("X%02d", j))
		g.AddTriple(rdf.Triple{S: x, P: iri("s"), O: iri("Sink")})
	}
	ix, err := index.Build(filepath.Join(t.TempDir(), "short"), g, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	set, err := shard.Build(filepath.Join(t.TempDir(), "shards"), g, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// ?v -r-> Hub -s-> Sink (three nodes). Sink retrieval returns all 24
	// paths; the 16 A→Hub→Sink paths bound to 0, the 8 two-node X→Sink
	// paths carry a deficit-1 bound and sort after them.
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("v"), P: iri("r"), O: iri("Hub")})
	q.AddTriple(rdf.Triple{S: iri("Hub"), P: iri("s"), O: iri("Sink")})

	opts := Options{Parallelism: 1, MaxCandidatesPerCluster: 20}
	engines := []struct {
		name string
		e    *Engine
	}{
		{"monolith", New(ix, opts)},
		{"sharded", NewSharded(set, opts)},
	}
	for i, v := range engines {
		lines, plans := goldenLines(t, v.e, []goldenQuery{{"crafted", q}}, 16)
		v.e.Close()
		checkGolden(t, "equivalence_short.golden", v.name, lines, i == 0)
		clusterAttrs(t, v.name, plans[0], map[string]int64{"short_pruned": 4, "aligned": 20, "bound_pruned": 4})
	}
}
