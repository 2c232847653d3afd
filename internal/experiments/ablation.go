package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"sama/internal/align"
	"sama/internal/core"
	"sama/internal/datasets"
	"sama/internal/eval"
	"sama/internal/index"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/textindex"
	"sama/internal/workload"
)

// AblationResult is one ablation's summary line.
type AblationResult struct {
	Name    string
	Variant string
	Metric  string
	Value   float64
}

// RunAblationChi compares the alignment-aware χ (the production
// conformity) against the literal label-overlap χ on the LUBM workload,
// reporting the mean reciprocal rank of each variant. The aligned χ is
// the DESIGN.md §4.3 deviation; this ablation quantifies it.
func RunAblationChi(sys *SamaSystem, queries []workload.Query, depth int) ([]AblationResult, error) {
	if depth <= 0 {
		depth = 20
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"aligned-chi", core.Options{Params: align.DefaultParams}},
		{"raw-chi", core.Options{Params: align.DefaultParams, RawChi: true}},
	}
	var out []AblationResult
	data := sys.Graph()
	for _, v := range variants {
		engine := core.New(sys.Index(), v.opts)
		var sum float64
		n := 0
		for _, q := range queries {
			judge := eval.NewBindingJudge(data, q.Pattern, align.DefaultParams, rrThreshold(q))
			answers, err := engine.Query(q.Pattern, depth)
			if err != nil {
				return nil, fmt.Errorf("ablation chi: %s: %w", q.ID, err)
			}
			rels := make([]bool, len(answers))
			any := false
			for i, a := range answers {
				rels[i] = judge.Relevant(a.Subst)
				any = any || rels[i]
			}
			if any {
				sum += eval.ReciprocalRank(rels)
				n++
			}
		}
		mrr := 0.0
		if n > 0 {
			mrr = sum / float64(n)
		}
		out = append(out, AblationResult{
			Name: "conformity-chi", Variant: v.name, Metric: "MRR", Value: mrr,
		})
	}
	return out, nil
}

// RunAblationAligner compares the linear greedy aligner against the DP
// oracle over the candidate paths of the whole workload: agreement rate
// (identical λ) and the mean extra cost greedy pays when they differ,
// plus the speed ratio. This quantifies the paper's linear-time claim.
func RunAblationAligner(sys *SamaSystem, queries []workload.Query) ([]AblationResult, error) {
	greedy := align.NewGreedy(align.DefaultParams)
	optimal := align.NewOptimal(align.DefaultParams)
	engine := sys.Engine()

	var pairs []struct{ p, q paths.Path }
	for _, q := range queries {
		pre := engine.Preprocess(q.Pattern)
		clusters, err := engine.Cluster(pre)
		if err != nil {
			return nil, err
		}
		for _, cl := range clusters {
			for i := range min(len(cl.Items), 50) { // bounded sample per cluster
				pairs = append(pairs, struct{ p, q paths.Path }{cl.Path(i), cl.Query})
			}
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("ablation aligner: no alignment pairs sampled")
	}
	agree := 0
	var extra float64
	gStart := time.Now()
	gCosts := make([]float64, len(pairs))
	for i, pr := range pairs {
		gCosts[i] = greedy.Align(pr.p, pr.q).Cost
	}
	gTime := time.Since(gStart)
	oStart := time.Now()
	for i, pr := range pairs {
		oc := optimal.Align(pr.p, pr.q).Cost
		if gCosts[i] == oc {
			agree++
		} else {
			extra += gCosts[i] - oc
		}
	}
	oTime := time.Since(oStart)
	results := []AblationResult{
		{Name: "aligner", Variant: "greedy-vs-optimal", Metric: "agreement", Value: float64(agree) / float64(len(pairs))},
		{Name: "aligner", Variant: "greedy-vs-optimal", Metric: "mean-extra-cost", Value: extra / float64(len(pairs))},
	}
	if gTime > 0 {
		results = append(results, AblationResult{
			Name: "aligner", Variant: "greedy-vs-optimal", Metric: "speedup",
			Value: float64(oTime) / float64(gTime),
		})
	}
	return results, nil
}

// RunAblationThesaurus compares how many *relevant* answers (judged by
// binding verification) the approximate queries yield with and without
// the WordNet-substitute thesaurus. The engine fills its answer budget
// either way; the thesaurus determines whether the fillers actually
// answer the query.
func RunAblationThesaurus(dir string, triples int, seed int64) ([]AblationResult, error) {
	g := datasets.LUBM{}.Generate(triples, seed)
	var out []AblationResult
	for _, variant := range []struct {
		name string
		thes *textindex.Thesaurus
	}{{"with-thesaurus", textindex.BenchmarkThesaurus()}, {"without", nil}} {
		idx, err := index.Build(filepath.Join(dir, "thes-"+variant.name), g, index.Options{
			Thesaurus: variant.thes,
		})
		if err != nil {
			return nil, err
		}
		engine := core.New(idx, core.Options{})
		relevant := 0
		for _, q := range workload.LUBMQueries() {
			if !q.Approximate {
				continue
			}
			judge := eval.NewBindingJudge(g, q.Pattern, align.DefaultParams, rrThreshold(q))
			answers, err := engine.Query(q.Pattern, 50)
			if err != nil {
				idx.Close()
				return nil, err
			}
			for _, a := range answers {
				if judge.Relevant(a.Subst) {
					relevant++
				}
			}
		}
		out = append(out, AblationResult{
			Name: "thesaurus", Variant: variant.name, Metric: "relevant-answers", Value: float64(relevant),
		})
		if err := idx.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunInsertAblation compares incremental InsertTriples against a full
// rebuild for a small batch of new statements.
func RunInsertAblation(dir string, triples int, seed int64) ([]AblationResult, error) {
	g := datasets.LUBM{}.Generate(triples, seed)
	idx, err := index.Build(filepath.Join(dir, "incr"), g, index.Options{})
	if err != nil {
		return nil, err
	}
	defer idx.Close()
	ns := datasets.LUBMNamespace
	batch := []rdf.Triple{
		{S: rdf.NewIRI(ns + "University0/Department0/GraduateStudent0"),
			P: rdf.NewIRI(ns + "vocab/takesCourse"),
			O: rdf.NewIRI(ns + "University0/Department0/Course0")},
		{S: rdf.NewIRI(ns + "NewStudent"),
			P: rdf.NewIRI(ns + "vocab/memberOf"),
			O: rdf.NewIRI(ns + "University0/Department0")},
	}
	start := time.Now()
	if err := idx.InsertTriples(batch); err != nil {
		return nil, err
	}
	incr := time.Since(start)

	start = time.Now()
	rebuilt, err := index.Build(filepath.Join(dir, "rebuild"), idx.Graph(), index.Options{})
	if err != nil {
		return nil, err
	}
	full := time.Since(start)
	rebuilt.Close()

	return []AblationResult{
		{Name: "index-update", Variant: "incremental", Metric: "ms", Value: ms(incr)},
		{Name: "index-update", Variant: "full-rebuild", Metric: "ms", Value: ms(full)},
	}, nil
}

// FormatAblation renders ablation results as a table.
func FormatAblation(results []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-22s %-16s %12s\n", "ablation", "variant", "metric", "value")
	for _, r := range results {
		fmt.Fprintf(&b, "%-16s %-22s %-16s %12.4g\n", r.Name, r.Variant, r.Metric, r.Value)
	}
	return b.String()
}
