// Command bench is the repository's benchmark: three LUBM workloads
// driven through the in-process query server by one closed-loop client,
// timed on a steal-adjusted clock. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"sama/client"
)

// findBenchDir locates this package's directory from the working
// directory, which is the repository root (bench/run.sh, the driver) or
// bench itself (go run -C bench .).
func findBenchDir() (string, error) {
	for _, c := range []struct{ manifest, dir string }{
		{"BENCHMARK.json", "bench"},
		{filepath.Join("..", "BENCHMARK.json"), "."},
	} {
		if _, err := os.Stat(c.manifest); err == nil {
			if _, err := os.Stat(filepath.Join(c.dir, "go.mod")); err == nil {
				return c.dir, nil
			}
		}
	}
	return "", errors.New("run from the repository root or from bench/: BENCHMARK.json and bench/go.mod not found")
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: cluster_param, search_heavy or read_after_write")
		seed         = flag.Int64("seed", 1, "seed of the op stream (constants and order inside a block; never the data)")
		seconds      = flag.Float64("seconds", 30, "wall-clock length of the timed phase")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and bench/out/trace_<workload>.json")
		writeExp     = flag.Bool("write-expected", false, "regenerate bench/expected/<workload>.json (all workloads without --workload)")
		compare      = flag.Bool("compare", false, "compare two snapshots: bench -compare a.json b.json")
		snapshot     = flag.String("snapshot", "", "run the two A/A sets of every workload and write the snapshot to this file")
		procStat     = flag.String("procstat", "/proc/stat", "cpu counters file (test seam)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	benchDir, err := findBenchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two snapshot files")
			return 2
		}
		return compareSnapshots(benchDir, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *snapshot != "" {
		if err := takeSnapshot(ctx, benchDir, *snapshot, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	cfg := &config{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scale:    1,
		benchDir: benchDir,
		clock:    cpuClock{path: *procStat},
		log:      os.Stdout,
	}
	if *writeExp {
		for i := range workloads {
			if *workloadName != "" && workloads[i].name != *workloadName {
				continue
			}
			cfg.workload = &workloads[i]
			if err := regenerateExpected(ctx, cfg); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		return 0
	}
	w, ok := findWorkload(*workloadName)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench --workload cluster_param|search_heavy|read_after_write --seed N --seconds N --trace 0|1")
		return 2
	}
	cfg.workload = w

	runOnce := run
	if cfg.trace {
		runOnce = runTraced
	}
	rep, err := runOnce(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep.print(cfg)
	if err := rep.save(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.Result.Failed > 0 {
		return 1
	}
	return 0
}

// regenerateExpected answers every op the workload can produce on a
// freshly built base graph and writes the digests.
func regenerateExpected(ctx context.Context, cfg *config) error {
	e, err := setUp(cfg)
	if err != nil {
		return err
	}
	defer e.close()
	ef := expectedFile{
		Workload: cfg.workload.name,
		Triples:  len(e.data.base),
		K:        answersK,
		Digests:  map[string]string{},
	}
	r := &runner{cfg: cfg, env: e, check: &checker{}}
	for _, o := range cfg.workload.allKeys(e.data) {
		resp, _ := r.query(ctx, o, client.QueryOptions{})
		if resp == nil {
			return fmt.Errorf("write expected: %s", r.errs[0])
		}
		ef.Digests[o.key] = digest(fromWire(resp.Answers))
	}
	fmt.Fprintf(cfg.log, "%s: %d digests over %d triples\n", ef.Workload, len(ef.Digests), ef.Triples)
	return writeExpected(cfg.benchDir, ef)
}
