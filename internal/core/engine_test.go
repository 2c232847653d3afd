package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sama/internal/align"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI(s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }
func vr(s string) rdf.Term  { return rdf.NewVar(s) }

// figure1Graph is the complete data graph of the paper's Figure 1(a).
func figure1Graph() *rdf.Graph {
	g := rdf.NewGraph()
	add := func(s, p, o rdf.Term) { g.AddTriple(rdf.Triple{S: s, P: p, O: o}) }
	add(iri("CarlaBunes"), iri("sponsor"), iri("A0056"))
	add(iri("JeffRyser"), iri("sponsor"), iri("A1589"))
	add(iri("KeithFarmer"), iri("sponsor"), iri("A1232"))
	add(iri("JohnMcRie"), iri("sponsor"), iri("A0772"))
	add(iri("JohnMcRie"), iri("sponsor"), iri("A1232"))
	add(iri("PierceDickes"), iri("sponsor"), iri("A0467"))
	add(iri("A0056"), iri("aTo"), iri("B1432"))
	add(iri("A1589"), iri("aTo"), iri("B0532"))
	add(iri("A1232"), iri("aTo"), iri("B0045"))
	add(iri("A0772"), iri("aTo"), iri("B0045"))
	add(iri("A0467"), iri("aTo"), iri("B0532"))
	add(iri("JeffRyser"), iri("sponsor"), iri("B0045"))
	add(iri("PeterTraves"), iri("sponsor"), iri("B0532"))
	add(iri("AliceNimber"), iri("sponsor"), iri("B1432"))
	add(iri("PierceDickes"), iri("sponsor"), iri("B1432"))
	add(iri("B1432"), iri("subject"), lit("Health Care"))
	add(iri("B0532"), iri("subject"), lit("Health Care"))
	add(iri("B0045"), iri("subject"), lit("Health Care"))
	add(iri("JeffRyser"), iri("gender"), lit("Male"))
	add(iri("KeithFarmer"), iri("gender"), lit("Male"))
	add(iri("JohnMcRie"), iri("gender"), lit("Male"))
	add(iri("PierceDickes"), iri("gender"), lit("Male"))
	add(iri("CarlaBunes"), iri("gender"), lit("Female"))
	add(iri("AliceNimber"), iri("gender"), lit("Female"))
	return g
}

// queryQ1 is the paper's Q1.
func queryQ1() *rdf.QueryGraph {
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: iri("CarlaBunes"), P: iri("sponsor"), O: vr("v1")})
	q.AddTriple(rdf.Triple{S: vr("v1"), P: iri("aTo"), O: vr("v2")})
	q.AddTriple(rdf.Triple{S: vr("v2"), P: iri("subject"), O: lit("Health Care")})
	q.AddTriple(rdf.Triple{S: vr("v3"), P: iri("sponsor"), O: vr("v2")})
	q.AddTriple(rdf.Triple{S: vr("v3"), P: iri("gender"), O: lit("Male")})
	return q
}

// queryQ2 is the paper's Q2 (Figure 1c), which has no exact answer as a
// whole but should retrieve the same best answer as Q1.
func queryQ2() *rdf.QueryGraph {
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("v3"), P: iri("gender"), O: lit("Male")})
	q.AddTriple(rdf.Triple{S: vr("v3"), P: iri("sponsor"), O: vr("v2")})
	q.AddTriple(rdf.Triple{S: vr("v2"), P: vr("e1"), O: lit("Health Care")})
	return q
}

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	base := filepath.Join(t.TempDir(), "fig1")
	ix, err := index.Build(base, figure1Graph(), index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return New(ix, opts)
}

// memoFree returns an engine over ix whose alignment memo is purged at
// the start of every View, so each query it answers builds every cluster
// cold: the reference the memo's clusters and answers are checked
// against.
func memoFree(ix *index.Index, opts Options) *Engine {
	e := New(ix, opts)
	e.wrap = func(r backend) backend {
		e.DropCaches()
		return r
	}
	return e
}

func TestPreprocessQ1(t *testing.T) {
	e := newTestEngine(t, Options{})
	pre := e.Preprocess(queryQ1())
	if len(pre.Paths) != 3 {
		t.Fatalf("PQ size = %d, want 3", len(pre.Paths))
	}
	// The intersection graph of Figure 2: q1—q2 (via ?v2, HC) and
	// q2—q3 (via ?v3); q1 and q3 are not adjacent.
	degrees := make([]int, 3)
	var chiTotal int
	for i, edges := range pre.IG {
		degrees[i] = len(edges)
		for _, ed := range edges {
			chiTotal += ed.Chi
		}
	}
	// One path has degree 2 (q2) and two have degree 1.
	twos, ones := 0, 0
	for _, d := range degrees {
		switch d {
		case 2:
			twos++
		case 1:
			ones++
		}
	}
	if twos != 1 || ones != 2 {
		t.Errorf("IG degrees = %v, want one 2 and two 1s", degrees)
	}
	// χ(q1,q2)=2 and χ(q2,q3)=1, each counted twice (undirected).
	if chiTotal != 2*(2+1) {
		t.Errorf("total χ = %d, want 6", chiTotal)
	}
}

func TestClusterQ1MatchesFigure3(t *testing.T) {
	e := newTestEngine(t, Options{})
	pre := e.Preprocess(queryQ1())
	clusters, err := e.Cluster(pre)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(clusters))
	}
	byQueryString := map[string]Cluster{}
	for _, cl := range clusters {
		byQueryString[cl.Query.String()] = cl
	}
	// cl1 (q1: CB-sponsor-?v1-aTo-?v2-subject-HC): 6 long paths; the
	// best is p1 with score 0, the rest score 1 (Figure 3).
	cl1 := byQueryString["CarlaBunes-sponsor-?v1-aTo-?v2-subject-Health Care"]
	if len(cl1.Items) != 6 {
		t.Fatalf("cl1 size = %d, want 6", len(cl1.Items))
	}
	if cl1.Path(0).Source().Value != "CarlaBunes" || cl1.Items[0].Cost != 0 {
		t.Errorf("cl1 best = %s [%v], want CarlaBunes path at 0", cl1.Path(0), cl1.Items[0].Cost)
	}
	for ii, it := range cl1.Items[1:] {
		if it.Cost != 1 {
			t.Errorf("cl1 non-best cost = %v, want 1 (%s)", it.Cost, cl1.Path(ii+1))
		}
	}
	// cl2 (q2: ?v3-sponsor-?v2-subject-HC): 10 paths; 4 at score 0
	// (p7..p10) and 6 at 1.5 (p11..p16), as in Figure 3.
	cl2 := byQueryString["?v3-sponsor-?v2-subject-Health Care"]
	if len(cl2.Items) != 10 {
		t.Fatalf("cl2 size = %d, want 10", len(cl2.Items))
	}
	zeros, onePointFives := 0, 0
	for _, it := range cl2.Items {
		switch it.Cost {
		case 0:
			zeros++
		case 1.5:
			onePointFives++
		}
	}
	if zeros != 4 || onePointFives != 6 {
		t.Errorf("cl2 costs: %d zeros, %d 1.5s; want 4 and 6", zeros, onePointFives)
	}
	// cl3 (q3: ?v3-gender-Male): exactly the 4 male gender paths, all 0.
	cl3 := byQueryString["?v3-gender-Male"]
	if len(cl3.Items) != 4 {
		t.Fatalf("cl3 size = %d, want 4", len(cl3.Items))
	}
	for ii, it := range cl3.Items {
		if it.Cost != 0 {
			t.Errorf("cl3 cost = %v, want 0 (%s)", it.Cost, cl3.Path(ii))
		}
	}
}

func TestQueryQ1TopAnswerIsPaperFirstSolution(t *testing.T) {
	e := newTestEngine(t, Options{})
	answers, err := e.Query(queryQ1(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	top := answers[0]
	// The paper's first solution combines p1, p10 and p20: an exact
	// answer with Λ = 0 and perfectly conforming intersections.
	if !top.Exact() {
		t.Errorf("top answer not exact:\n%s", top)
	}
	if top.Lambda != 0 {
		t.Errorf("top Λ = %v, want 0", top.Lambda)
	}
	if top.Psi != 2 { // ψ(q1,q2) + ψ(q2,q3) = 1 + 1
		t.Errorf("top Ψ = %v, want 2", top.Psi)
	}
	if top.Degree != 2 {
		t.Errorf("top degree = %v, want 2 (both forest edges solid)", top.Degree)
	}
	// Bindings of the paper's first solution.
	want := map[string]string{"v1": "A0056", "v2": "B1432", "v3": "PierceDickes"}
	for name, val := range want {
		if got, ok := top.Subst[name]; !ok || got.Value != val {
			t.Errorf("?%s = %v, want %s", name, got, val)
		}
	}
	// Monotone order.
	for i := 1; i < len(answers); i++ {
		if answers[i].Score < answers[i-1].Score {
			t.Errorf("answers out of order at %d: %v < %v", i, answers[i].Score, answers[i-1].Score)
		}
	}
}

func TestQueryQ2ApproximateRecoversQ1Answer(t *testing.T) {
	// Q2 has a variable edge (?e1) and no aTo hop; the same best data
	// paths should surface (the paper's motivating claim: Q2 returns
	// Q1's answer even though Q2 has no exact structural match).
	e := newTestEngine(t, Options{})
	answers, err := e.Query(queryQ2(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers for Q2")
	}
	top := answers[0]
	if top.Lambda != 0 {
		t.Errorf("Q2 top Λ = %v, want 0 (direct sponsor paths align exactly)", top.Lambda)
	}
	g := top.Graph()
	if g.NodeByTerm(lit("Health Care")) == rdf.InvalidNode {
		t.Error("answer graph misses Health Care")
	}
	if g.NodeByTerm(lit("Male")) == rdf.InvalidNode {
		t.Error("answer graph misses Male")
	}
	// ?v3 must be a male sponsor, consistently bound.
	v3, ok := top.Subst["v3"]
	if !ok {
		t.Fatal("?v3 unbound")
	}
	males := map[string]bool{"JeffRyser": true, "KeithFarmer": true, "JohnMcRie": true, "PierceDickes": true}
	if !males[v3.Value] {
		t.Errorf("?v3 = %v, want a male sponsor", v3)
	}
}

func TestQueryForestMatchesFigure4(t *testing.T) {
	e := newTestEngine(t, Options{})
	answers, err := e.Query(queryQ1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	edges := answers[0].Forest()
	if len(edges) != 2 {
		t.Fatalf("forest edges = %d, want 2", len(edges))
	}
	for _, fe := range edges {
		if !fe.Solid() {
			t.Errorf("first solution forest edge not solid: degree %v", fe.Degree)
		}
	}
}

func TestQueryTopKOrderingAndLimit(t *testing.T) {
	e := newTestEngine(t, Options{})
	ans3, err := e.Query(queryQ1(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans3) != 3 {
		t.Fatalf("k=3 returned %d", len(ans3))
	}
	ans10, err := e.Query(queryQ1(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans10) != 10 {
		t.Fatalf("k=10 returned %d", len(ans10))
	}
	for i := range ans3 {
		if ans3[i].Score != ans10[i].Score {
			t.Errorf("prefix stability broken at %d: %v vs %v", i, ans3[i].Score, ans10[i].Score)
		}
	}
}

func TestQueryUnlimitedK(t *testing.T) {
	e := newTestEngine(t, Options{MaxCombinations: 1000})
	answers, err := e.Query(queryQ1(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 6 × 10 × 4 = 240 combinations exist; all should be visited.
	if len(answers) != 240 {
		t.Errorf("unlimited k returned %d answers, want 240", len(answers))
	}
}

func TestQueryNoMatchingSink(t *testing.T) {
	// A query about a subject absent from the data: clustering falls
	// back to containment and still produces (poorly scoring) answers
	// or none — it must not error.
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("x"), P: iri("subject"), O: lit("Space Travel")})
	e := newTestEngine(t, Options{})
	answers, err := e.Query(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(answers); i++ {
		if answers[i].Score < answers[i-1].Score {
			t.Error("fallback answers out of order")
		}
	}
}

func TestQueryEmptyGraphErrors(t *testing.T) {
	e := newTestEngine(t, Options{})
	if _, err := e.Query(rdf.NewQueryGraph(), 5); err == nil {
		t.Error("empty query accepted")
	}
}

func TestQueryAllVariablePath(t *testing.T) {
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: vr("a"), P: vr("p"), O: vr("b")})
	e := newTestEngine(t, Options{})
	answers, err := e.Query(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("all-variable query found nothing")
	}
	if answers[0].Lambda != 0 {
		t.Errorf("all-variable top Λ = %v, want 0", answers[0].Lambda)
	}
}

func TestAnswerStringAndBindings(t *testing.T) {
	e := newTestEngine(t, Options{})
	answers, _ := e.Query(queryQ1(), 1)
	s := answers[0].String()
	if s == "" {
		t.Error("empty answer string")
	}
	b := answers[0].Bindings([]string{"v1", "nope"})
	if _, ok := b["v1"]; !ok {
		t.Error("v1 missing from bindings")
	}
	if _, ok := b["nope"]; ok {
		t.Error("unbound variable present in bindings")
	}
}

func TestEngineAccessors(t *testing.T) {
	e := newTestEngine(t, Options{})
	if e.Params() != align.DefaultParams {
		t.Error("Params default wrong")
	}
	if e.Index() == nil {
		t.Error("Index nil")
	}
}

func TestConcurrentQueries(t *testing.T) {
	e := newTestEngine(t, Options{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	scores := make([]float64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := queryQ1()
			if w%2 == 1 {
				q = queryQ2()
			}
			answers, err := e.Query(q, 5)
			if err != nil {
				errs[w] = err
				return
			}
			if len(answers) > 0 {
				scores[w] = answers[0].Score
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	// Same query → same top score regardless of interleaving.
	for w := 2; w < 8; w += 2 {
		if scores[w] != scores[0] {
			t.Errorf("nondeterministic top score: %v vs %v", scores[w], scores[0])
		}
	}
}

func TestQueryWithStats(t *testing.T) {
	e := newTestEngine(t, Options{})
	answers, st, err := e.QueryWithStats(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	if st.QueryPaths != 3 {
		t.Errorf("QueryPaths = %d, want 3", st.QueryPaths)
	}
	// cl1 retrieves 10 HC-sink paths, cl2 10, cl3 4.
	if st.Extracted != 24 {
		t.Errorf("Extracted = %d, want 24", st.Extracted)
	}
	if st.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestRawChiOptionChangesRanking(t *testing.T) {
	// With raw χ the engine still answers; scores may differ but the
	// search stays monotone.
	e := newTestEngine(t, Options{RawChi: true})
	answers, err := e.Query(queryQ1(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers under raw χ")
	}
	for i := 1; i < len(answers); i++ {
		if answers[i].Score < answers[i-1].Score {
			t.Error("raw-χ answers out of order")
		}
	}
}

func TestCustomParams(t *testing.T) {
	par := align.Params{A: 10, B: 5, C: 20, D: 10, E: 2}
	e := newTestEngine(t, Options{Params: par})
	answers, err := e.Query(queryQ1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect alignments still cost 0; Ψ scales with E.
	if answers[0].Psi != 4 { // 2 conforming pairs × e=2
		t.Errorf("Ψ with e=2 is %v, want 4", answers[0].Psi)
	}
}

// TestQueryTracePhases checks that every query produces the span tree
// the -stats table and /debug/lastqueries consume: the four phases in
// order, per-cluster alignment children, and durations that sum (within
// slack) to the recorded end-to-end time.
func TestQueryTracePhases(t *testing.T) {
	e := newTestEngine(t, Options{})
	_, st, err := e.QueryWithStats(queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := st.Trace
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	wantPhases := []string{"decompose", "cluster", "search", "assemble"}
	if len(tr.Phases) != len(wantPhases) {
		t.Fatalf("got %d phases, want %d", len(tr.Phases), len(wantPhases))
	}
	var sum time.Duration
	for i, name := range wantPhases {
		if tr.Phases[i].Name != name {
			t.Errorf("phase %d = %q, want %q", i, tr.Phases[i].Name, name)
		}
		if tr.Phases[i].Duration <= 0 {
			t.Errorf("phase %q has no duration", name)
		}
		sum += tr.Phases[i].Duration
	}
	if sum > st.Elapsed {
		t.Errorf("phase sum %v exceeds total %v", sum, st.Elapsed)
	}
	// The phases cover the whole execution but for a few stat reads;
	// allow 20% of total plus scheduling noise.
	if slack := st.Elapsed - sum; slack > st.Elapsed/5+5*time.Millisecond {
		t.Errorf("phase sum %v far below total %v", sum, st.Elapsed)
	}
	if tr.Total != st.Elapsed {
		t.Errorf("trace total %v != stats elapsed %v", tr.Total, st.Elapsed)
	}
	// One alignment child per query path, in order.
	cluster := tr.Phases[1]
	if len(cluster.Children) != st.QueryPaths {
		t.Fatalf("cluster children = %d, want %d", len(cluster.Children), st.QueryPaths)
	}
	var retrieved int64
	for i, c := range cluster.Children {
		if want := fmt.Sprintf("align[%d]", i); c.Name != want {
			t.Errorf("child %d = %q, want %q", i, c.Name, want)
		}
		retrieved += c.Attrs["retrieved"]
	}
	if retrieved != int64(st.Extracted) {
		t.Errorf("align retrieved sum = %d, want Extracted %d", retrieved, st.Extracted)
	}
	// Storage attribution: the figure-1 index is small but the query
	// must have touched pages.
	if tr.IO.PageReads == 0 || tr.IO.PageReads != tr.IO.CacheHits+tr.IO.CacheMisses {
		t.Errorf("inconsistent IO attribution: %+v", tr.IO)
	}
	if tr.Answers == 0 {
		t.Error("trace answer count not stamped")
	}
}

// TestDeadlineStopCounter drives a query whose 1ms deadline has already
// passed and asserts the labelled stop-reason counter and the partial
// counter tick — the fleet-wide deadline-truncation visibility.
func TestDeadlineStopCounter(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t, Options{Metrics: reg})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done() // deadline certainly expired
	_, st, err := e.QueryWithStatsContext(ctx, queryQ1(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Partial || st.StopReason != StopDeadline {
		t.Fatalf("stats = partial %v reason %q, want deadline partial", st.Partial, st.StopReason)
	}
	if got := reg.Counter("sama_query_stop_total", stopHelp, "reason", string(StopDeadline)).Value(); got != 1 {
		t.Errorf("stop counter = %d, want 1", got)
	}
	if got := reg.Counter("sama_query_partial_total", "").Value(); got != 1 {
		t.Errorf("partial counter = %d, want 1", got)
	}
	if got := reg.Counter("sama_queries_total", "").Value(); got != 1 {
		t.Errorf("queries counter = %d, want 1", got)
	}

	// A completed query moves only the query counters.
	if _, _, err := e.QueryWithStatsContext(context.Background(), queryQ1(), 5); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sama_queries_total", "").Value(); got != 2 {
		t.Errorf("queries counter = %d, want 2", got)
	}
	if got := reg.Counter("sama_query_partial_total", "").Value(); got != 1 {
		t.Errorf("partial counter moved on a completed query: %d", got)
	}
	if got := reg.Histogram("sama_query_seconds", "", nil).Count(); got != 2 {
		t.Errorf("latency histogram count = %d, want 2", got)
	}
}

// TestOptionsClampCandidates pins the 2^20 candidate bound that keeps
// any per-candidate index comfortably inside the scorer's flat key
// space (and, historically, inside the 20-bit packed memo key).
func TestOptionsClampCandidates(t *testing.T) {
	if got := (Options{MaxCandidatesPerCluster: 1 << 30}).maxCandidates(); got != maxCandidatesBound {
		t.Errorf("maxCandidates(1<<30) = %d, want %d", got, maxCandidatesBound)
	}
	if got := (Options{MaxCandidatesPerCluster: 7}).maxCandidates(); got != 7 {
		t.Errorf("maxCandidates(7) = %d, want 7", got)
	}
	if got := (Options{}).maxCandidates(); got != 512 {
		t.Errorf("maxCandidates(0) = %d, want 512", got)
	}
}
