package experiments

import (
	"strings"
	"testing"

	"sama/internal/datasets"
	"sama/internal/workload"
)

// smallLUBM is shared across the tests in this file; ~4k triples keeps
// the whole evaluation loop under a few seconds.
func smallSystems(t *testing.T) ([]System, *SamaSystem) {
	t.Helper()
	g := datasets.LUBM{}.Generate(4000, 1)
	systems, err := NewAllSystems(t.TempDir(), g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range systems {
			s.Close()
		}
	})
	return systems, systems[0].(*SamaSystem)
}

func TestRunTable1Small(t *testing.T) {
	scales := []Table1Scale{
		{Dataset: "PBlog", Triples: 1000},
		{Dataset: "GOV", Triples: 1500},
		{Dataset: "Berlin", Triples: 2000},
		// LUBM generates in ≈1000-triple department units; 5000 keeps it
		// safely above Berlin for the ordering assertion.
		{Dataset: "LUBM", Triples: 5000},
	}
	rows, err := RunTable1(t.TempDir(), scales, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Triples <= 0 || r.HV <= 0 || r.HE <= r.Triples {
			t.Errorf("row %d implausible: %+v (HE must exceed triples: edges + paths)", i, r)
		}
		if r.DiskBytes <= 0 || r.BuildTime <= 0 {
			t.Errorf("row %d missing cost metrics: %+v", i, r)
		}
	}
	// Larger target → more triples (ordering preserved).
	for i := 1; i < len(rows); i++ {
		if rows[i].Triples <= rows[i-1].Triples {
			t.Errorf("triples not increasing: %d then %d", rows[i-1].Triples, rows[i].Triples)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "LUBM") || !strings.Contains(out, "#Triples") {
		t.Errorf("format missing columns:\n%s", out)
	}
}

func TestRunFigure6Small(t *testing.T) {
	systems, _ := smallSystems(t)
	queries := workload.LUBMQueries()[:3] // keep the matrix small
	res, err := RunFigure6(systems, queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cold) != len(systems)*len(queries) || len(res.Warm) != len(res.Cold) {
		t.Fatalf("cells: %d cold, %d warm", len(res.Cold), len(res.Warm))
	}
	for _, c := range append(append([]Fig6Cell{}, res.Cold...), res.Warm...) {
		if c.Avg < 0 {
			t.Errorf("negative time for %s/%s", c.System, c.Query)
		}
	}
	out := FormatFigure6(res.Cold, "cold-cache")
	if !strings.Contains(out, "Sama") || !strings.Contains(out, "Q1") {
		t.Errorf("format broken:\n%s", out)
	}
}

// TestColdStartIsCold: every cold repetition of Fig. 6 must be cold.
// After ColdStart a Run reads pages from disk and finds nothing in the
// alignment memo — the second round as much as the first.
func TestColdStartIsCold(t *testing.T) {
	_, sama := smallSystems(t)
	q := workload.LUBMQueries()[3]
	for round := 1; round <= 2; round++ {
		if err := sama.ColdStart(); err != nil {
			t.Fatal(err)
		}
		pages, memo := sama.Index().PoolStats().Misses, sama.Engine().CacheStats()["align"].Hits
		if _, err := sama.Run(q, TopK); err != nil {
			t.Fatal(err)
		}
		pages = sama.Index().PoolStats().Misses - pages
		memo = sama.Engine().CacheStats()["align"].Hits - memo
		if pages == 0 || memo != 0 {
			t.Errorf("round %d after ColdStart: %d page reads, %d memo hits; want > 0 and 0", round, pages, memo)
		}
	}
}

func TestRunFigure7Sweeps(t *testing.T) {
	_, sama := smallSystems(t)
	b, err := RunFigure7b(sama, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Points) != 5 {
		t.Fatalf("7b points = %d", len(b.Points))
	}
	if b.TrendEqn == "" {
		t.Error("7b trendline missing")
	}
	c, err := RunFigure7c(sama, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 5 {
		t.Fatalf("7c points = %d", len(c.Points))
	}
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].X <= c.Points[i-1].X {
			t.Error("7c x not increasing")
		}
	}
	if s := FormatFigure7(b); !strings.Contains(s, "trendline") {
		t.Errorf("format: %s", s)
	}
}

func TestRunFigure7aScales(t *testing.T) {
	series, err := RunFigure7a(t.TempDir(), []int{1000, 2000, 3000}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 3 {
		t.Fatalf("points = %d", len(series.Points))
	}
	// I (extracted paths) must grow with the data.
	for i := 1; i < len(series.Points); i++ {
		if series.Points[i].X < series.Points[i-1].X {
			t.Errorf("extracted paths shrank: %v then %v", series.Points[i-1].X, series.Points[i].X)
		}
	}
}

func TestRunFigure8Shape(t *testing.T) {
	systems, _ := smallSystems(t)
	queries := workload.LUBMQueries()
	cells, err := RunFigure8(systems, queries)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]map[string]int{}
	for _, c := range cells {
		if counts[c.System] == nil {
			counts[c.System] = map[string]int{}
		}
		counts[c.System][c.Query] = c.Matches
	}
	// The paper's headline effectiveness shape: on the approximate
	// queries, Sama and Sapper identify more matches than Dogma.
	for _, q := range queries {
		if !q.Approximate {
			continue
		}
		sama := counts["Sama"][q.ID]
		dogmaN := counts["Dogma"][q.ID]
		if sama <= dogmaN {
			t.Errorf("%s: Sama %d should exceed Dogma %d on approximate query",
				q.ID, sama, dogmaN)
		}
	}
	// Sama answers every query; Dogma finds nothing on approximate ones.
	for _, q := range queries {
		if counts["Sama"][q.ID] == 0 {
			t.Errorf("Sama returned nothing for %s", q.ID)
		}
		if q.Approximate && counts["Dogma"][q.ID] != 0 {
			t.Errorf("Dogma matched approximate %s: %d", q.ID, counts["Dogma"][q.ID])
		}
	}
	if s := FormatFigure8(cells); !strings.Contains(s, "Q12") {
		t.Errorf("format: %s", s)
	}
}

func TestRunFigure9Shape(t *testing.T) {
	systems, sama := smallSystems(t)
	queries := workload.LUBMQueries()
	curves, err := RunFigure9(systems, sama.Graph(), queries, Fig9Options{PoolDepth: 50})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string][]float64{}
	for _, c := range curves {
		var ps []float64
		for _, p := range c.Points {
			ps = append(ps, p.Precision)
		}
		byLabel[c.Label] = ps
	}
	// Sama's small-query bucket exists and has non-trivial precision at
	// low recall.
	small, ok := byLabel["Sama |Q| in [1,4]"]
	if !ok {
		t.Fatalf("missing small-|Q| Sama curve; have %v", keys(byLabel))
	}
	if small[0] <= 0 {
		t.Errorf("Sama small-|Q| precision at recall 0 = %v, want > 0", small[0])
	}
	// Every curve is monotone non-increasing (interpolated PR property).
	for label, ps := range byLabel {
		for i := 1; i < len(ps); i++ {
			if ps[i] > ps[i-1]+1e-9 {
				t.Errorf("%s precision increases along recall", label)
			}
		}
	}
	if s := FormatFigure9(curves); !strings.Contains(s, "recall") {
		t.Errorf("format: %s", s)
	}
}

func keys(m map[string][]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestRunRRAllOnes(t *testing.T) {
	_, sama := smallSystems(t)
	rows, err := RunRR(sama, workload.LUBMQueries(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AnyRelevant && r.RR != 1 {
			t.Errorf("%s: RR = %v, want 1 (monotonicity violated)", r.Query, r.RR)
		}
	}
	if s := FormatRR(rows); !strings.Contains(s, "RR") {
		t.Errorf("format: %s", s)
	}
}
