package experiments

import (
	"strings"
	"testing"

	"sama/internal/workload"
)

func TestAblationChi(t *testing.T) {
	_, sama := smallSystems(t)
	results, err := RunAblationChi(sama, workload.LUBMQueries()[:8], 15)
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]float64{}
	for _, r := range results {
		if r.Metric == "MRR" {
			byVariant[r.Variant] = r.Value
		}
	}
	aligned, rawOK := byVariant["aligned-chi"], byVariant["raw-chi"]
	if aligned == 0 {
		t.Fatal("aligned-chi MRR missing or zero")
	}
	// The aligned χ must never rank worse than the raw overlap.
	if aligned < rawOK-1e-9 {
		t.Errorf("aligned MRR %v < raw MRR %v", aligned, rawOK)
	}
}

func TestAblationAligner(t *testing.T) {
	_, sama := smallSystems(t)
	results, err := RunAblationAligner(sama, workload.LUBMQueries()[:4])
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]float64{}
	for _, r := range results {
		metrics[r.Metric] = r.Value
	}
	if metrics["agreement"] < 0.9 {
		t.Errorf("greedy/optimal agreement = %v, want ≥ 0.9 on benchmark paths", metrics["agreement"])
	}
	if metrics["mean-extra-cost"] < 0 {
		t.Errorf("greedy cheaper than optimal: extra cost %v", metrics["mean-extra-cost"])
	}
}

func TestAblationThesaurus(t *testing.T) {
	results, err := RunAblationThesaurus(t.TempDir(), 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	for _, r := range results {
		counts[r.Variant] = r.Value
	}
	// The thesaurus widens what a label lookup can match, so both
	// variants must reach relevant answers. The counts are not strictly
	// ordered: retrieval degrades to edge labels and the fallback scan
	// when a constant label has no postings, so the without variant
	// answers from a different (sometimes luckier) candidate pool where
	// it used to dead-end with zero candidates.
	for _, v := range []string{"with-thesaurus", "without"} {
		if counts[v] <= 0 {
			t.Errorf("variant %s reached no relevant answers", v)
		}
	}
}

func TestInsertAblation(t *testing.T) {
	results, err := RunInsertAblation(t.TempDir(), 6000, 1)
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]float64{}
	for _, r := range results {
		times[r.Variant] = r.Value
	}
	if times["incremental"] <= 0 || times["full-rebuild"] <= 0 {
		t.Fatalf("missing timings: %v", times)
	}
	// Incremental updates must beat a full rebuild comfortably.
	if times["incremental"] >= times["full-rebuild"] {
		t.Errorf("incremental %vms not faster than rebuild %vms",
			times["incremental"], times["full-rebuild"])
	}
}

func TestFormatAblation(t *testing.T) {
	s := FormatAblation([]AblationResult{
		{Name: "x", Variant: "v", Metric: "m", Value: 1.5},
	})
	if !strings.Contains(s, "ablation") || !strings.Contains(s, "1.5") {
		t.Errorf("format: %s", s)
	}
}
