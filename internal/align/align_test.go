package align

import (
	"math"
	"testing"

	"sama/internal/paths"
	"sama/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI(s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }
func vr(s string) rdf.Term  { return rdf.NewVar(s) }

// mkPath builds a path from an alternating label list n1, e1, n2, e2, …
// Labels starting with '?' become variables; labels starting with '"'
// become literals; everything else is an IRI.
func mkPath(labels ...string) paths.Path {
	conv := func(s string) rdf.Term {
		switch {
		case len(s) > 0 && s[0] == '?':
			return vr(s[1:])
		case len(s) > 0 && s[0] == '"':
			return lit(s[1:])
		default:
			return iri(s)
		}
	}
	var p paths.Path
	for i, l := range labels {
		if i%2 == 0 {
			p.Nodes = append(p.Nodes, conv(l))
		} else {
			p.Edges = append(p.Edges, conv(l))
		}
	}
	return p
}

// The paper's query paths (§4.3 / §5) and data paths from Figure 3.
var (
	q1 = mkPath("CB", "sponsor", "?v1", "aTo", "?v2", "subject", `"HC`)
	q2 = mkPath("?v3", "sponsor", "?v2", "subject", `"HC`)
	q3 = mkPath("?v3", "gender", `"Male`)

	p1  = mkPath("CB", "sponsor", "A0056", "aTo", "B1432", "subject", `"HC`)
	p2  = mkPath("JR", "sponsor", "A1589", "aTo", "B0532", "subject", `"HC`)
	p7  = mkPath("JR", "sponsor", "B0045", "subject", `"HC`)
	p10 = mkPath("PD", "sponsor", "B1432", "subject", `"HC`)
	p17 = mkPath("JR", "gender", `"Male`)
	p20 = mkPath("PD", "gender", `"Male`)
)

var paperParams = DefaultParams // a=1, b=0.5, c=2, d=1, e=1

// opsAligner is an Aligner that can also emit the alignment's operation
// sequence into a caller-supplied log — the seam the tests read ops
// through, now that an Alignment does not retain them.
type opsAligner interface {
	Aligner
	alignOps(p, q paths.Path, log *[]Op) *Alignment
}

func alignersUnderTest() map[string]opsAligner {
	return map[string]opsAligner{
		"greedy":  NewGreedy(paperParams),
		"optimal": NewOptimal(paperParams),
	}
}

// opsOf returns the operation sequence of al's alignment of p against q.
func opsOf(al opsAligner, p, q paths.Path) []Op {
	var ops []Op
	al.alignOps(p, q, &ops)
	return ops
}

// TestPaperExampleLambda reproduces every λ value worked out in §4.3 and
// in the Figure 3 clusters, for both aligners.
func TestPaperExampleLambda(t *testing.T) {
	cases := []struct {
		name string
		p, q paths.Path
		want float64
	}{
		// §4.3: "In the former case λ(p, q1) = 0".
		{"p1-vs-q1", p1, q1, 0},
		// §4.3: "λ(p, q2) = (0 + b) + (0 + d) = 1.5".
		{"p1-vs-q2", p1, q2, 1.5},
		// §4.3: "λ(p′, q1) = (a + 0) + (0 + 0) = 1" (CB vs JR mismatch).
		{"p2-vs-q1", p2, q1, 1},
		// Figure 3, cl2: length-3 paths align perfectly with q2.
		{"p7-vs-q2", p7, q2, 0},
		{"p10-vs-q2", p10, q2, 0},
		// Figure 3, cl2: length-4 paths score 1.5 against q2.
		{"p2-vs-q2", p2, q2, 1.5},
		// Figure 3, cl3: gender paths align perfectly with q3.
		{"p17-vs-q3", p17, q3, 0},
		{"p20-vs-q3", p20, q3, 0},
	}
	for name, al := range alignersUnderTest() {
		for _, c := range cases {
			got := al.Align(c.p, c.q)
			if got.Cost != c.want {
				t.Errorf("%s: λ(%s, %s) = %v, want %v\nops: %v",
					name, c.name, c.q, got.Cost, c.want, opsOf(al, c.p, c.q))
			}
		}
	}
}

func TestAlignmentCounters(t *testing.T) {
	// p1 vs q2: one node and one edge inserted into q (the aTo step).
	al := NewGreedy(paperParams).Align(p1, q2)
	if al.NodeInsertions != 1 || al.EdgeInsertions != 1 {
		t.Errorf("insertions = %d nodes %d edges, want 1/1", al.NodeInsertions, al.EdgeInsertions)
	}
	if al.NodeMismatches != 0 || al.EdgeMismatches != 0 {
		t.Errorf("mismatches = %d/%d, want 0/0", al.NodeMismatches, al.EdgeMismatches)
	}
	if al.Perfect() {
		t.Error("1.5-cost alignment reported Perfect")
	}
	// p2 vs q1: a single node mismatch (CB vs JR).
	al = NewGreedy(paperParams).Align(p2, q1)
	if al.NodeMismatches != 1 {
		t.Errorf("NodeMismatches = %d, want 1", al.NodeMismatches)
	}
	// Exact case.
	al = NewGreedy(paperParams).Align(p1, q1)
	if !al.Perfect() {
		t.Errorf("p1 vs q1 should be perfect, got %+v", al)
	}
}

func TestAlignmentSubstitution(t *testing.T) {
	al := NewGreedy(paperParams).Align(p1, q1)
	want := map[string]rdf.Term{"v1": iri("A0056"), "v2": iri("B1432")}
	for name, term := range want {
		if got, ok := al.Subst[name]; !ok || got != term {
			t.Errorf("φ(?%s) = %v, want %v", name, got, term)
		}
	}
	// Gender path binds ?v3.
	al = NewGreedy(paperParams).Align(p20, q3)
	if got := al.Subst["v3"]; got != iri("PD") {
		t.Errorf("φ(?v3) = %v, want PD", got)
	}
}

func TestAlignmentVariableEdge(t *testing.T) {
	// The paper's Q2 (Figure 1c) has a variable edge label ?e1.
	q := mkPath("?v2", "?e1", `"HC`)
	p := mkPath("B1432", "subject", `"HC`)
	for name, al := range alignersUnderTest() {
		got := al.Align(p, q)
		if got.Cost != 0 {
			t.Errorf("%s: variable edge alignment cost = %v, want 0", name, got.Cost)
		}
	}
}

func TestAlignmentSinkMismatch(t *testing.T) {
	p := mkPath("a", "p", `"X`)
	q := mkPath("a", "p", `"Y`)
	for name, al := range alignersUnderTest() {
		got := al.Align(p, q)
		if got.Cost != paperParams.A {
			t.Errorf("%s: sink mismatch cost = %v, want %v", name, got.Cost, paperParams.A)
		}
	}
}

func TestAlignmentQueryLongerThanData(t *testing.T) {
	// q asks for a longer chain than p provides: the missing pair is a
	// deletion, priced A + C.
	q := mkPath("?v1", "p", "?v2", "q", `"HC`)
	p := mkPath("x", "q", `"HC`)
	for name, al := range alignersUnderTest() {
		got := al.Align(p, q)
		want := paperParams.A + paperParams.C
		if got.Cost != want {
			t.Errorf("%s: deletion cost = %v, want %v (ops %v)", name, got.Cost, want, opsOf(al, p, q))
		}
	}
}

func TestAlignmentEmptyPaths(t *testing.T) {
	empty := paths.Path{}
	p := mkPath("a", "p", "b")
	for name, al := range alignersUnderTest() {
		if got := al.Align(empty, p); got.Cost != paperParams.A*2+paperParams.C {
			t.Errorf("%s: empty p cost = %v", name, got.Cost)
		}
		if got := al.Align(p, empty); got.Cost != paperParams.B*2+paperParams.D {
			t.Errorf("%s: empty q cost = %v", name, got.Cost)
		}
	}
}

func TestAlignmentConflictingRebind(t *testing.T) {
	// ?x occurs twice in q but aligns with two different constants: the
	// second occurrence is a free labeling modification (ω(×) = 0), so
	// the alignment is still cost 0 and φ keeps the sink-side binding.
	q := mkPath("?x", "p", "?x")
	p := mkPath("a", "p", "b")
	al := NewGreedy(paperParams).Align(p, q)
	if al.Cost != 0 {
		t.Errorf("conflicting rebind cost = %v, want 0", al.Cost)
	}
	if got := al.Subst["x"]; got != iri("b") {
		t.Errorf("φ(?x) = %v, want b (sink-side binding wins)", got)
	}
}

func TestGreedyNeverBeatsOptimal(t *testing.T) {
	// Structured cases plus the paper's paths.
	cases := [][2]paths.Path{
		{p1, q1}, {p1, q2}, {p2, q1}, {p7, q2}, {p10, q1}, {p17, q3},
		{mkPath("a", "p", "b", "q", "c", "r", "d"), mkPath("a", "p", "c", "r", "d")},
		{mkPath("a", "p", "b"), mkPath("x", "y", "z", "w", "a", "p", "b")},
		{mkPath("n1", "e", "n2", "e", "n3", "e", "n4"), mkPath("?a", "e", "?b")},
	}
	g := NewGreedy(paperParams)
	o := NewOptimal(paperParams)
	for i, c := range cases {
		gc := g.Align(c[0], c[1]).Cost
		oc := o.Align(c[0], c[1]).Cost
		if oc > gc {
			t.Errorf("case %d: optimal %v > greedy %v", i, oc, gc)
		}
	}
}

func TestGreedyVsOptimalRandom(t *testing.T) {
	// Property over pseudo-random small paths: optimal ≤ greedy, both
	// non-negative, and both zero on identical variable-free paths.
	labels := []string{"a", "b", "c", "p", "q", "?x", "?y"}
	gen := func(seed, length int) paths.Path {
		var p paths.Path
		state := uint32(seed*2654435761 + 12345)
		next := func() int {
			state = state*1664525 + 1013904223
			return int(state >> 16)
		}
		for i := 0; i < length; i++ {
			l := labels[next()%len(labels)]
			if i%2 == 0 {
				p.Nodes = append(p.Nodes, termFor(l))
			} else {
				p.Edges = append(p.Edges, termFor(l))
			}
		}
		if len(p.Nodes) == len(p.Edges) {
			p.Nodes = append(p.Nodes, iri("sink"))
		}
		return p
	}
	g := NewGreedy(paperParams)
	o := NewOptimal(paperParams)
	for seed := 0; seed < 200; seed++ {
		p := gen(seed, 3+seed%9*2)
		q := gen(seed*7+1, 3+(seed/2)%7*2)
		gc := g.Align(p, q).Cost
		oc := o.Align(p, q).Cost
		if gc < 0 || oc < 0 {
			t.Fatalf("seed %d: negative cost g=%v o=%v", seed, gc, oc)
		}
		if oc > gc+1e-9 {
			t.Errorf("seed %d: optimal %v > greedy %v\np=%s\nq=%s", seed, oc, gc, p, q)
		}
	}
}

func termFor(l string) rdf.Term {
	if l[0] == '?' {
		return vr(l[1:])
	}
	return iri(l)
}

func TestInteriorAnchor(t *testing.T) {
	// The data path continues past the query's endpoint: anchoring at
	// the interior B0532 makes the suffix (subject, HC) free context —
	// the answer gathered more labels than Q, it did not diverge.
	q := mkPath("?x", "sponsor", "B0532")
	p := mkPath("MariaVance", "sponsor", "B0532", "subject", `"HC`)
	for name, al := range alignersUnderTest() {
		got := al.Align(p, q)
		if got.Cost != 0 {
			t.Errorf("%s: interior anchor cost = %v, want 0\nops: %v", name, got.Cost, opsOf(al, p, q))
		}
		if got.Subst["x"] != iri("MariaVance") {
			t.Errorf("%s: φ(?x) = %v, want MariaVance", name, got.Subst["x"])
		}
		if got.ContextNodes != 1 || got.ContextEdges != 1 {
			t.Errorf("%s: context = %d/%d, want 1/1", name, got.ContextNodes, got.ContextEdges)
		}
		if got.NodeInsertions != 0 || got.EdgeInsertions != 0 {
			t.Errorf("%s: insertions = %d/%d, want 0/0 (context is not insertion)",
				name, got.NodeInsertions, got.EdgeInsertions)
		}
		if !got.Perfect() {
			t.Errorf("%s: context-only alignment should be Perfect", name)
		}
	}
	// With the full chain queried, the plain sink-anchored scan is 0.
	qFull := mkPath("?x", "sponsor", "B0532", "subject", `"HC`)
	if got := Lambda(p, qFull, paperParams); got != 0 {
		t.Errorf("full-path alignment = %v, want 0", got)
	}
	// Variable sink: the anchor lands after the last occurrence of the
	// query's final edge label, so ?y binds B0532 and the rest is
	// context.
	qVar := mkPath("?x", "sponsor", "?y")
	for name, al := range alignersUnderTest() {
		got := al.Align(p, qVar)
		if got.Cost != 0 {
			t.Errorf("%s: variable-sink cost = %v, want 0", name, got.Cost)
		}
		if got.Subst["y"] != iri("B0532") {
			t.Errorf("%s: φ(?y) = %v, want B0532 (not the path sink)", name, got.Subst["y"])
		}
	}
}

func TestPrefixContextIsFree(t *testing.T) {
	// A query matching the tail of a longer chain: the leading hops are
	// free context, and the bindings come from the matched window.
	q := mkPath("?x", "worksFor", "?d", "subOrganizationOf", "?u")
	p := mkPath("Pub1", "publicationAuthor", "Prof3", "worksFor", "Dept0", "subOrganizationOf", "Univ0")
	for name, al := range alignersUnderTest() {
		got := al.Align(p, q)
		if got.Cost != 0 {
			t.Errorf("%s: tail-match cost = %v, want 0\nops: %v", name, got.Cost, opsOf(al, p, q))
		}
		want := map[string]string{"x": "Prof3", "d": "Dept0", "u": "Univ0"}
		for v, val := range want {
			if got.Subst[v] != iri(val) {
				t.Errorf("%s: φ(?%s) = %v, want %s", name, v, got.Subst[v], val)
			}
		}
		if got.ContextNodes != 1 || got.ContextEdges != 1 {
			t.Errorf("%s: context = %d/%d, want 1/1", name, got.ContextNodes, got.ContextEdges)
		}
	}
	// Mid-path insertions still cost b + d: the paper's worked example.
	if got := Lambda(p1, q2, paperParams); got != 1.5 {
		t.Errorf("mid insertion = %v, want 1.5 (Equation 1 price)", got)
	}
}

func TestSelfAlignmentIsZero(t *testing.T) {
	for _, p := range []paths.Path{p1, p2, p7, p10, p17} {
		for name, al := range alignersUnderTest() {
			if got := al.Align(p, p).Cost; got != 0 {
				t.Errorf("%s: self-alignment of %s = %v, want 0", name, p, got)
			}
		}
	}
}

func TestPsiPaperExamples(t *testing.T) {
	// χ(q2,q1) = {?v2, HC}. χ(p10,p1) = {B1432, HC} → degree 1, ψ = e.
	if got := PsiDegree(q2, q1, p10, p1); got != 1 {
		t.Errorf("PsiDegree(q2,q1,p10,p1) = %v, want 1", got)
	}
	if got := Psi(q2, q1, p10, p1, paperParams); got != 1 {
		t.Errorf("Psi(q2,q1,p10,p1) = %v, want 1", got)
	}
	// χ(p7,p1) = {HC} → degree 0.5 (Figure 4's dashed edge), ψ = 2.
	if got := PsiDegree(q2, q1, p7, p1); got != 0.5 {
		t.Errorf("PsiDegree(q2,q1,p7,p1) = %v, want 0.5", got)
	}
	if got := Psi(q2, q1, p7, p1, paperParams); got != 2 {
		t.Errorf("Psi(q2,q1,p7,p1) = %v, want 2", got)
	}
	// Disjoint query paths contribute 0 regardless of the data paths.
	if got := Psi(q1, q3, p1, p17, paperParams); got != 0 {
		t.Errorf("Psi on disjoint query paths = %v, want 0", got)
	}
	if got := PsiDegree(q1, q3, p1, p17); got != 1 {
		t.Errorf("PsiDegree on disjoint query paths = %v, want 1", got)
	}
}

func TestPsiAlignedPaperExamples(t *testing.T) {
	// Recover the substitutions exactly as the engine does.
	g := NewGreedy(paperParams)
	a1 := g.Align(p1, q1)   // φ: v1←A0056, v2←B1432
	a10 := g.Align(p10, q2) // φ: v3←PD, v2←B1432
	a7 := g.Align(p7, q2)   // φ: v3←JR, v2←B0045

	// χ(q2,q1) = {?v2, HC}. (p10, p1): ?v2 agrees (B1432) and HC is in
	// both → χa = 2, ψ = 1, degree = 1 (the solid edge of Figure 4).
	if got := PsiAligned(q2, q1, a10.Subst, a1.Subst, p10, p1, paperParams); got != 1 {
		t.Errorf("PsiAligned(p10,p1) = %v, want 1", got)
	}
	if got := PsiDegreeAligned(q2, q1, a10.Subst, a1.Subst, p10, p1); got != 1 {
		t.Errorf("PsiDegreeAligned(p10,p1) = %v, want 1", got)
	}
	// (p7, p1): ?v2 disagrees (B0045 vs B1432), only HC corresponds →
	// χa = 1, ψ = 2, degree = 0.5 (the dashed edge of Figure 4).
	if got := PsiAligned(q2, q1, a7.Subst, a1.Subst, p7, p1, paperParams); got != 2 {
		t.Errorf("PsiAligned(p7,p1) = %v, want 2", got)
	}
	if got := PsiDegreeAligned(q2, q1, a7.Subst, a1.Subst, p7, p1); got != 0.5 {
		t.Errorf("PsiDegreeAligned(p7,p1) = %v, want 0.5", got)
	}
}

func TestChiAlignedIgnoresIncidentalSharing(t *testing.T) {
	// Two query paths sharing only the variable ?s; the data paths
	// share a class-like constant node that does not correspond to any
	// shared query node — it must not count.
	qa := mkPath("?s", "ta", "?c", "type", "GradCourse")
	qb := mkPath("?s", "takes", "?c2", "type", "GradCourse")
	pa := mkPath("Stu1", "ta", "CourseX", "type", "GradCourse")
	pb := mkPath("Stu2", "takes", "CourseX", "type", "GradCourse")
	g := NewGreedy(paperParams)
	aa := g.Align(pa, qa)
	ab := g.Align(pb, qb)
	// χ(qa,qb) = {?s, GradCourse}: ?s disagrees (Stu1/Stu2), GradCourse
	// is genuinely shared → χa = 1 of 2.
	if got := ChiAligned(qa, qb, aa.Subst, ab.Subst, pa, pb); got != 1 {
		t.Errorf("ChiAligned = %d, want 1", got)
	}
	// Consistent students → both correspond.
	pc := mkPath("Stu1", "takes", "CourseY", "type", "GradCourse")
	ac := g.Align(pc, qb)
	if got := ChiAligned(qa, qb, aa.Subst, ac.Subst, pa, pc); got != 2 {
		t.Errorf("consistent ChiAligned = %d, want 2", got)
	}
}

func TestPsiNoCommonDataNodes(t *testing.T) {
	// |χ(pi,pj)| = 0 → ψ = e·|χ(qi,qj)|.
	pa := mkPath("x", "sponsor", "y", "subject", `"Other`)
	if got := Psi(q2, q1, pa, p1, paperParams); got != 2 {
		t.Errorf("Psi with disjoint data paths = %v, want e·|χ(q)| = 2", got)
	}
}

func TestScoreFirstSolution(t *testing.T) {
	// The paper's first solution combines p1, p10, p20: Λ = 0 and every
	// pair conforms perfectly, so score = Ψ = ψ(q1,q2) + ψ(q2,q3) = 2e.
	pairs := []PairedPath{
		{Query: q1, Data: p1},
		{Query: q2, Data: p10},
		{Query: q3, Data: p20},
	}
	lam := Quality(pairs, paperParams)
	if lam != 0 {
		t.Errorf("Λ = %v, want 0", lam)
	}
	psi := Conformity(pairs, paperParams)
	if psi != 2 {
		t.Errorf("Ψ = %v, want 2", psi)
	}
	if got := Score(pairs, paperParams); got != 2 {
		t.Errorf("score = %v, want 2", got)
	}
}

func TestScoreWorseCombination(t *testing.T) {
	// Swapping p10 for p7 (JR sponsors B0045, not B1432) breaks the
	// ?v2 intersection with q1 and the ?v3 one with q3’s PD… check the
	// combination with p17 (JR gender Male) instead: conformity between
	// q2/q3 holds via JR but q1/q2 degrades.
	good := Score([]PairedPath{
		{Query: q1, Data: p1}, {Query: q2, Data: p10}, {Query: q3, Data: p20},
	}, paperParams)
	worse := Score([]PairedPath{
		{Query: q1, Data: p1}, {Query: q2, Data: p7}, {Query: q3, Data: p17},
	}, paperParams)
	if !(good < worse) {
		t.Errorf("good %v should beat worse %v", good, worse)
	}
}

func TestQualityCachesAlignments(t *testing.T) {
	pairs := []PairedPath{{Query: q1, Data: p1}}
	Quality(pairs, paperParams)
	if pairs[0].Alignment == nil {
		t.Fatal("Quality did not cache the alignment")
	}
	if !pairs[0].Alignment.Perfect() {
		t.Error("cached alignment should be perfect")
	}
}

func TestParamsValid(t *testing.T) {
	if !DefaultParams.Valid() {
		t.Error("DefaultParams invalid")
	}
	for _, bad := range []Params{{A: -1}, {C: math.NaN()}, {E: math.Inf(1)}} {
		if bad.Valid() {
			t.Errorf("%+v accepted", bad)
		}
	}
}

func TestOpKindString(t *testing.T) {
	kinds := []OpKind{OpMatch, OpBind, OpNodeMismatch, OpEdgeMismatch,
		OpNodeInsert, OpEdgeInsert, OpNodeDelete, OpEdgeDelete, OpKind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty name for %d", uint8(k))
		}
	}
}

func TestLambdaHelpers(t *testing.T) {
	if Lambda(p1, q2, paperParams) != 1.5 {
		t.Error("Lambda helper wrong")
	}
	if LambdaOptimal(p1, q2, paperParams) != 1.5 {
		t.Error("LambdaOptimal helper wrong")
	}
}

func TestAlignLinearTimeShape(t *testing.T) {
	// Sanity check for the O(|p|+|q|) claim: doubling the input roughly
	// doubles the number of recorded ops, and the aligner terminates on
	// long paths quickly. (Wall-clock asserts are flaky; op counts are
	// deterministic.)
	long := func(n int) paths.Path {
		var p paths.Path
		for i := 0; i < n; i++ {
			p.Nodes = append(p.Nodes, iri("n"))
			if i < n-1 {
				p.Edges = append(p.Edges, iri("e"))
			}
		}
		return p
	}
	g := NewGreedy(paperParams)
	ops1 := len(opsOf(g, long(100), long(50)))
	ops2 := len(opsOf(g, long(200), long(100)))
	if ops2 >= 3*ops1 {
		t.Errorf("op growth not linear: %d → %d", ops1, ops2)
	}
}

func TestScoreMonotoneInMismatches(t *testing.T) {
	// Adding one more mismatching element to an answer path must not
	// decrease its λ (the heart of Theorem 1 at path granularity).
	base := mkPath("CB", "sponsor", "X", "aTo", "Y", "subject", `"HC`)
	worse := mkPath("ZZ", "sponsor", "X", "aTo", "Y", "subject", `"HC`)
	lb := Lambda(base, q1, paperParams)
	lw := Lambda(worse, q1, paperParams)
	if lw < lb {
		t.Errorf("extra mismatch lowered λ: %v < %v", lw, lb)
	}
	if math.IsNaN(lb) || math.IsNaN(lw) {
		t.Error("NaN cost")
	}
}

// TestAlignAllocations pins what one Align allocates: the alignment,
// its substitution map, its binding positions — and nothing per
// recovered operation.
func TestAlignAllocations(t *testing.T) {
	g := NewGreedy(paperParams)
	g.Align(p1, q2) // size the pair scratch
	if n := testing.AllocsPerRun(100, func() { g.Align(p1, q2) }); n > 4 {
		t.Errorf("Align(4-node path, 3-node query) allocates %v objects, want ≤ 4", n)
	}
}
