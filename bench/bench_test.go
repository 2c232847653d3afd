package main

import (
	"context"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func TestParseProcStat(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want cpuTimes
	}{
		{"full", "cpu  100 5 30 900 7 2 3 40 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n", cpuTimes{busy: 140, steal: 40, ok: true}},
		{"no steal column", "cpu  100 5 30 900 7 2 3\n", cpuTimes{busy: 140, ok: true}},
		{"pre-2.6 columns", "cpu  100 5 30 900\n", cpuTimes{busy: 135, ok: true}},
		{"no cpu line", "intr 1 2 3\n", cpuTimes{}},
		{"garbage", "cpu  a b c d e\n", cpuTimes{}},
		{"empty", "", cpuTimes{}},
	}
	for _, c := range cases {
		if got := parseProcStat([]byte(c.in)); got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestStealFactor(t *testing.T) {
	at := func(busy, steal uint64) cpuTimes { return cpuTimes{busy: busy, steal: steal, ok: true} }
	cases := []struct {
		name string
		a, b cpuTimes
		want float64
	}{
		{"no steal", at(100, 0), at(200, 0), 1},
		{"quarter stolen", at(100, 10), at(175, 35), 0.75},
		{"zero delta", at(100, 10), at(100, 10), 1},
		{"busy wrapped", at(100, 10), at(50, 20), 1},
		{"steal wrapped", at(100, 10), at(200, 5), 1},
		{"first reading missing", cpuTimes{}, at(200, 5), 1},
		{"second reading missing", at(100, 10), cpuTimes{}, 1},
	}
	for _, c := range cases {
		if got := stealFactor(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: f = %g, want %g", c.name, got, c.want)
		}
	}
	if got := (cpuClock{path: filepath.Join(t.TempDir(), "absent")}).read(); got.ok {
		t.Errorf("unreadable file gave %+v", got)
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := percentile(xs, 0.5); got != 5.5 {
		t.Errorf("p50 = %g, want 5.5", got)
	}
	if got := percentile(xs, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %g, want 9.1", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %g", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %g, %g, want 1.5, 12", q1, q3)
	}
	if !sort.Float64sAreSorted([]float64{1, 2}) || xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

// blockTemplates returns the sorted template names of a block.
func blockTemplates(ops []op) []string {
	names := make([]string, len(ops))
	for i, o := range ops {
		names[i] = o.template
	}
	sort.Strings(names)
	return names
}

func TestOpStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		data := w.generate(0.05)
		var first [][]string
		for _, seed := range []int64{1, 2, 99} {
			a, b := newOpStream(w, data, seed), newOpStream(w, data, seed)
			for n := 0; n < 4; n++ {
				ops, again := a.next(), b.next()
				if !reflect.DeepEqual(ops, again) {
					t.Fatalf("%s seed %d block %d: same seed gave different ops", w.name, seed, n)
				}
				count := map[string]int{}
				for _, o := range ops {
					count[o.template]++
				}
				for _, tm := range w.templates {
					if count[tm.name] != w.draws {
						t.Errorf("%s seed %d block %d: template %s appears %d times, want %d", w.name, seed, n, tm.name, count[tm.name], w.draws)
					}
				}
				if want := w.writes && n > 0; (count["RYW"] == 1) != want {
					t.Errorf("%s seed %d block %d: %d read-your-writes probes", w.name, seed, n, count["RYW"])
				}
				names := blockTemplates(ops)
				if seed == 1 {
					first = append(first, names)
				} else if !reflect.DeepEqual(names, first[n]) {
					t.Errorf("%s block %d: seed %d holds %v, seed 1 held %v", w.name, n, seed, names, first[n])
				}
			}
		}
		if w.param {
			a, b := newOpStream(w, data, 1).next(), newOpStream(w, data, 2).next()
			if reflect.DeepEqual(a, b) {
				t.Errorf("%s: seeds 1 and 2 drew the same constants in the same order", w.name)
			}
		}
	}
}

func TestMarkersAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		s := marker(i).S.Label()
		if seen[s] {
			t.Fatalf("marker %d repeats %s", i, s)
		}
		seen[s] = true
	}
}

func TestVerdict(t *testing.T) {
	steady := func(m float64) series { return newSeries([]float64{m * 0.99, m, m, m * 1.01}) }
	noisy := newSeries([]float64{50, 100, 100, 200})
	cases := []struct {
		a, b   series
		better string
		want   string
	}{
		{steady(100), steady(110), "lower", "within"},
		{steady(100), steady(125), "lower", "worse"},
		{steady(100), steady(70), "lower", "within"},
		{steady(100), steady(75), "higher", "worse"},
		{steady(100), steady(130), "higher", "within"},
		{noisy, steady(300), "lower", "unresolved"},
	}
	for i, c := range cases {
		if got := verdict(c.a, c.b, c.better, 0.2); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

// TestSmoke runs every workload small and short in both trace modes and
// holds the output against BENCHMARK.json. It asserts no timing.
func TestSmoke(t *testing.T) {
	m, err := loadManifest(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, e := range m.EndToEnd {
		endToEnd[e.Name] = e.Unit
	}
	for _, p := range m.PerLayer {
		perLayer[p.Name] = p.Unit
	}
	// About 3k indexed triples each; read_after_write keeps a longer
	// insert stream so that a fast host does not run it dry.
	scales := map[string]float64{"cluster_param": 0.06, "search_heavy": 0.06, "read_after_write": 0.15}
	for i, wl := range m.Workloads {
		w, ok := findWorkload(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, the harness does not have it", wl.Name)
		}
		// The workloads run side by side: nothing here asserts a time.
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				cfg := &config{
					workload: w, seed: int64(i + 1), seconds: 0.5, trace: trace, scale: scales[w.name],
					benchDir: ".", clock: cpuClock{path: "/proc/stat"}, log: io.Discard,
				}
				runOnce, want := run, endToEnd
				if trace {
					runOnce, want = runTraced, perLayer
				}
				rep, err := runOnce(context.Background(), cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if rep.Result.Failed != 0 || !rep.Result.Correct || rep.Result.Attempted < 1 {
					t.Errorf("trace=%v: attempted %d, failed %d: %v", trace, rep.Result.Attempted, rep.Result.Failed, rep.Notes)
				}
				got := map[string]string{}
				for name, v := range rep.Result.Metrics {
					got[name] = v.Unit
					if !trace && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %g, want > 0", name, v.Value)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("trace=%v: metric %s = %g", trace, name, v.Value)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trace=%v: metrics and units differ from BENCHMARK.json:\n got %v\nwant %v", trace, got, want)
				}
			}
		})
	}
}

// TestUnreadableProcStat: without cpu counters the run completes on the
// raw wall clock and says so.
func TestUnreadableProcStat(t *testing.T) {
	w, _ := findWorkload("cluster_param")
	cfg := &config{
		workload: w, seed: 1, seconds: 0.3, scale: 0.06, benchDir: ".",
		clock: cpuClock{path: filepath.Join(t.TempDir(), "absent")}, log: io.Discard,
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Info["steal_share"] != 0 || rep.Result.Metrics["query_p90_ms"].Value != rep.Info["query_p90_wall_ms"] {
		t.Errorf("f is not 1: steal_share %g, p90 %g vs wall %g", rep.Info["steal_share"],
			rep.Result.Metrics["query_p90_ms"].Value, rep.Info["query_p90_wall_ms"])
	}
	found := false
	for _, n := range rep.Notes {
		if len(n) >= 6 && n[:6] == "clock:" {
			found = true
		}
	}
	if !found {
		t.Errorf("no clock note in %v", rep.Notes)
	}
}
