package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// series is the values one metric took over the runs of a set, with the
// spread the acceptance rule looks at: the distance between the first and
// third quartile as a share of the median.
type series struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	IQR    float64   `json:"iqr"`
	Spread float64   `json:"iqr_over_median"`
}

func newSeries(values []float64) series {
	q1, q3 := quartiles(values)
	m := median(values)
	return series{Values: values, Median: m, Q1: q1, Q3: q3, IQR: q3 - q1, Spread: ratio(q3-q1, m)}
}

// snapshotSet is one set of runs: per workload and metric a series. The
// metrics are the end-to-end ones on the adjusted clock plus, from each
// run's info, the same timings on the wall clock and the steal share.
type snapshotSet struct {
	Started   string                       `json:"started"`
	Seeds     []int64                      `json:"seeds"`
	Workloads map[string]map[string]series `json:"workloads"`
}

// snapshot is bench/results/BENCH_<pr>.json.
type snapshot struct {
	RunSeconds float64       `json:"run_seconds"`
	Sets       []snapshotSet `json:"sets"`
}

// The A/A protocol: two sets of ten runs per workload, the second set
// starting no sooner than ten minutes after the first, so that the sets
// see different host conditions. Snapshots taken any other way would not
// compare.
const (
	snapshotSets = 2
	snapshotRuns = 10
	snapshotGap  = 10 * time.Minute
)

// takeSnapshot runs the A/A sets of untraced runs of every workload, each
// run in a process of its own (peak_rss_mb is per process), and writes the
// snapshot. Set i uses seeds i·10+1 … (i+1)·10.
func takeSnapshot(ctx context.Context, benchDir, path string, seconds float64) error {
	const runs, sets = snapshotRuns, snapshotSets
	self, err := os.Executable()
	if err != nil {
		return err
	}
	snap := snapshot{RunSeconds: seconds}
	for si := 0; si < sets; si++ {
		started := time.Now()
		set := snapshotSet{Started: started.UTC().Format(time.RFC3339), Workloads: map[string]map[string]series{}}
		values := map[string]map[string][]float64{}
		for ri := 0; ri < runs; ri++ {
			seed := int64(si*runs + ri + 1)
			set.Seeds = append(set.Seeds, seed)
			for _, w := range workloads {
				cmd := exec.CommandContext(ctx, self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
				cmd.Stderr = os.Stderr
				// Interrupt, not kill: the child removes its index directory.
				cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
				cmd.WaitDelay = 30 * time.Second
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				data, err := os.ReadFile(filepath.Join(benchDir, "out", w.name+".json"))
				if err != nil {
					return err
				}
				var rep report
				if err := json.Unmarshal(data, &rep); err != nil {
					return err
				}
				if values[w.name] == nil {
					values[w.name] = map[string][]float64{}
				}
				for name, m := range rep.Result.Metrics {
					values[w.name][name] = append(values[w.name][name], m.Value)
				}
				for name, v := range rep.Info {
					values[w.name]["info."+name] = append(values[w.name]["info."+name], v)
				}
				fmt.Fprintf(os.Stderr, "set %d seed %d %s done\n", si+1, seed, w.name)
			}
		}
		for wname, metrics := range values {
			set.Workloads[wname] = map[string]series{}
			for name, vs := range metrics {
				set.Workloads[wname][name] = newSeries(vs)
			}
		}
		snap.Sets = append(snap.Sets, set)
		if si < sets-1 {
			select {
			case <-ctx.Done():
				return context.Cause(ctx)
			case <-time.After(time.Until(started.Add(snapshotGap))):
			}
		}
	}
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// manifest is the part of BENCHMARK.json that -compare reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest(benchDir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// pooled gathers a metric's values over every set of a snapshot.
func (s *snapshot) pooled(workload, metric string) series {
	var vs []float64
	for _, set := range s.Sets {
		vs = append(vs, set.Workloads[workload][metric].Values...)
	}
	return newSeries(vs)
}

func loadSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict classifies b against its base a for one metric: unresolved when
// either side's run-to-run spread is wider than the bound, worse when b's
// median is beyond the bound on the wrong side of a's, within otherwise.
func verdict(a, b series, better string, bound float64) string {
	if a.Spread > bound || b.Spread > bound {
		return "unresolved"
	}
	if better == "higher" {
		if b.Median < a.Median*(1-bound) {
			return "worse"
		}
	} else if b.Median > a.Median*(1+bound) {
		return "worse"
	}
	return "within"
}

// compareSnapshots prints one row per workload and end-to-end metric and
// returns the exit code: 1 when any row is worse.
func compareSnapshots(benchDir, pathA, pathB string, w io.Writer) int {
	m, err := loadManifest(benchDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadSnapshot(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadSnapshot(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-18s %-24s %14s %14s  %-22s %s\n", "workload", "metric", "base median", "median", "ratio (base)", "verdict")
	for _, wl := range m.Workloads {
		for _, e := range m.EndToEnd {
			sa, sb := a.pooled(wl.Name, e.Name), b.pooled(wl.Name, e.Name)
			v := "missing"
			if len(sa.Values) > 0 && len(sb.Values) > 0 {
				v = verdict(sa, sb, e.Better, e.Bound)
			}
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-24s %14.6g %14.6g  %-22s %s\n", wl.Name, e.Name, sa.Median, sb.Median,
				fmt.Sprintf("%.4f (%.6g %s)", ratio(sb.Median, sa.Median), sa.Median, e.Unit), v)
		}
	}
	return code
}
