package align_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sama/internal/align"
	"sama/internal/core"
	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/textindex"
	"sama/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/align_cases.golden")

type alignCase struct {
	id   string
	p, q paths.Path
}

// lubmCases returns every (cluster item, query path) pair the engine
// builds for Fig. 7's Q1–Q12 over LUBM 1 k (cluster cap 32), together
// with the alignment the engine computed for it.
func lubmCases(t *testing.T) ([]alignCase, []*align.Alignment) {
	t.Helper()
	g := datasets.LUBM{}.Generate(1000, 7)
	ix, err := index.Build(filepath.Join(t.TempDir(), "lubm"), g,
		index.Options{Thesaurus: textindex.BenchmarkThesaurus()})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	e := core.New(ix, core.Options{MaxCandidatesPerCluster: 32})
	var cases []alignCase
	var engine []*align.Alignment
	for _, q := range workload.LUBMQueries() {
		clusters, err := e.Cluster(e.Preprocess(q.Pattern))
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		for ci, cl := range clusters {
			for ii := range cl.Items {
				cases = append(cases, alignCase{fmt.Sprintf("%s/%d/%d", q.ID, ci, ii), cl.Path(ii), cl.Query})
				engine = append(engine, cl.Alignment(ii))
			}
		}
	}
	return cases, engine
}

// randomCases returns n seeded pairs. Data-path nodes are unique per
// position, so the anchor op names its position; edges come from a
// small vocabulary with shared stems. Every other case is built to tie:
// an all-variable query whose edges occur in no data path but are
// token-related to some of its edges prices every anchor the same, so
// the window affinity decides.
func randomCases(n int) []alignCase {
	rng := rand.New(rand.NewSource(19))
	dataEdges := []string{"teacherOf", "type", "takesCourse", "advisor", "memberOf", "worksFor", "teachingAssistantOf", "name"}
	queryOnly := []string{"teaches", "takes", "advises", "member", "works", "knows"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	cases := make([]alignCase, 0, n)
	for i := 0; i < n; i++ {
		var p, q paths.Path
		plen, qlen := 2+rng.Intn(5), 1+rng.Intn(4)
		for k := 0; k < plen; k++ {
			p.Nodes = append(p.Nodes, rdf.NewIRI(fmt.Sprintf("N%d_%d", i, k)))
			if k > 0 {
				p.Edges = append(p.Edges, rdf.NewIRI(pick(dataEdges)))
			}
		}
		tie := i%2 == 0
		for k := 0; k < qlen; k++ {
			switch {
			case tie || rng.Intn(10) < 7:
				q.Nodes = append(q.Nodes, rdf.NewVar(fmt.Sprintf("v%d", rng.Intn(3))))
			case rng.Intn(2) == 0:
				q.Nodes = append(q.Nodes, p.Nodes[rng.Intn(plen)])
			default:
				q.Nodes = append(q.Nodes, rdf.NewIRI(fmt.Sprintf("Z%d", k)))
			}
			if k == 0 {
				continue
			}
			switch {
			case tie:
				q.Edges = append(q.Edges, rdf.NewIRI(pick(queryOnly)))
			case rng.Intn(20) < 3:
				q.Edges = append(q.Edges, rdf.NewVar("e"))
			case rng.Intn(3) == 0:
				q.Edges = append(q.Edges, rdf.NewIRI(pick(queryOnly)))
			default:
				q.Edges = append(q.Edges, rdf.NewIRI(pick(dataEdges)))
			}
		}
		cases = append(cases, alignCase{fmt.Sprintf("rand/%03d", i), p, q})
	}
	return cases
}

// goldenLine renders everything an alignment decides: cost (shortest
// round-trip formatting), the eight counters, the sorted substitution,
// the chosen anchor (the position in p of the first operation's data
// node, -1 for a degenerate pair) and a digest of the whole operation
// sequence.
func goldenLine(c alignCase, al *align.Alignment, ops []align.Op) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s cost=%s nm=%d ni=%d em=%d ei=%d nd=%d ed=%d cn=%d ce=%d subst={",
		c.id, strconv.FormatFloat(al.Cost, 'g', -1, 64),
		al.NodeMismatches, al.NodeInsertions, al.EdgeMismatches, al.EdgeInsertions,
		al.NodeDeletions, al.EdgeDeletions, al.ContextNodes, al.ContextEdges)
	vars := make([]string, 0, len(al.Subst))
	for v := range al.Subst {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for i, v := range vars {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", v, al.Subst[v].String())
	}
	anchor := -1
	if len(c.p.Nodes) > 0 && len(c.q.Nodes) > 0 {
		for i, n := range c.p.Nodes {
			if n == ops[0].P {
				anchor = i
				break
			}
		}
	}
	h := uint64(14695981039346656037)
	for _, op := range ops {
		for _, ch := range []byte(fmt.Sprintf("%s|%s|%s\n", op.Kind, op.Q.String(), op.P.String())) {
			h = (h ^ uint64(ch)) * 1099511628211
		}
	}
	fmt.Fprintf(&b, "} anchor=%d ops=%d:%016x", anchor, len(ops), h)
	return b.String()
}

// TestAlignCasesGolden pins the greedy aligner's decisions — cost,
// counters, substitution, chosen window and operation sequence — for
// the paper's worked examples, the Fig. 7 clusters over LUBM 1 k and
// 500 random pairs to testdata/align_cases.golden, which was written by
// the aligner that retained every alignment's op log (c90f341). The
// alignment computed without a log — what the engine stores — must
// equal the one computed with it.
func TestAlignCasesGolden(t *testing.T) {
	var cases []alignCase
	for i, pq := range align.PaperPairs() {
		cases = append(cases, alignCase{fmt.Sprintf("paper/%02d", i), pq[0], pq[1]})
	}
	lubm, engine := lubmCases(t)
	cases = append(cases, lubm...)
	cases = append(cases, randomCases(500)...)

	g := align.NewGreedy(align.DefaultParams)
	lines := make([]string, len(cases))
	tied := 0
	for i, c := range cases {
		var ops []align.Op
		logged := g.AlignOps(c.p, c.q, &ops)
		lines[i] = goldenLine(c, logged, ops)
		bare := g.Align(c.p, c.q) // the engine's call: no log
		if g.Tied() {
			tied++
		}
		if !reflect.DeepEqual(bare, logged) {
			t.Errorf("%s: alignment without a log = %+v, with one = %+v", c.id, bare, logged)
		}
		// The engine keeps an item's bindings by term, not by position.
		unplaced := *logged
		unplaced.Bound = nil
		if k := i - len(align.PaperPairs()); k >= 0 && k < len(engine) && !reflect.DeepEqual(engine[k], &unplaced) {
			t.Errorf("%s: engine's alignment = %+v, a fresh one = %+v", c.id, engine[k], logged)
		}
	}
	if tied < 200 {
		t.Errorf("only %d of %d cases broke a tie between anchors; the golden no longer covers the tie-break", tied, len(cases))
	}

	path := filepath.Join("testdata", "align_cases.golden")
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d cases, golden has %d lines", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Fatalf("line %d diverged:\n  got:  %s\n  want: %s", i+1, lines[i], want[i])
		}
	}
}
