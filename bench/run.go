package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what bench/out/<workload>.json holds: the result and, in
// info, what the result line has no key for — the same timings on the raw
// wall clock, the steal share and the sample counts.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Result   result             `json:"result"`
	Info     map[string]float64 `json:"info"`
	Notes    []string           `json:"notes,omitempty"`
}

// sizeAtBlock fixes where index_bytes_per_triple is read on a workload
// that inserts: after this many timed blocks, so the figure does not
// depend on how many blocks the host let the run finish.
const sizeAtBlock = 40

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timings reduces timed blocks to latency percentiles and throughput, on
// the adjusted clock and on the wall clock.
type timings struct {
	samples                      int
	p50, p90, qps                float64
	wallP50, wallP90, wallQPS    float64
	adjustedSeconds, wallSeconds float64
}

func reduce(blocks []block) timings {
	var t timings
	var adj, wall []float64
	var correct int
	for _, b := range blocks {
		for _, rt := range b.rts {
			wall = append(wall, ms(rt))
			adj = append(adj, ms(rt)*b.f)
		}
		correct += b.correct
		t.adjustedSeconds += b.adjusted().Seconds()
		t.wallSeconds += b.wall.Seconds()
	}
	t.samples = len(adj)
	t.p50, t.p90 = percentile(adj, 0.5), percentile(adj, 0.9)
	t.wallP50, t.wallP90 = percentile(wall, 0.5), percentile(wall, 0.9)
	t.qps = ratio(float64(correct), t.adjustedSeconds)
	t.wallQPS = ratio(float64(correct), t.wallSeconds)
	return t
}

// session is a run between set-up and the final report: the environment,
// the runner on it, and what set-up cost.
type session struct {
	cfg   *config
	env   *env
	r     *runner
	setup interval // generate .. warm pass, one f over all of it
	notes []string
}

// open sets up through the warm pass. The caller closes the session, also
// when open fails.
func open(ctx context.Context, cfg *config) (*session, error) {
	s := &session{cfg: cfg}
	if !cfg.clock.read().ok {
		s.notes = append(s.notes, "clock: "+cfg.clock.path+" unreadable, f = 1 (raw wall clock)")
	}
	sw := cfg.clock.start()
	e, err := setUp(cfg)
	if err != nil {
		return s, err
	}
	s.env = e
	expected, err := loadExpected(cfg.benchDir, cfg.workload.name, len(e.data.base))
	if err != nil {
		return s, err
	}
	if expected == nil {
		s.notes = append(s.notes, "answers: no committed digests for this data size, structure checks only")
	}
	s.r = &runner{cfg: cfg, env: e, stream: newOpStream(cfg.workload, e.data, cfg.seed), check: &checker{expected: expected}}
	for j := 0; j < warmBlocks; j++ {
		if _, ok := s.r.runBlock(ctx, s.r.plainQuery); !ok {
			return s, fmt.Errorf("warm pass stopped: %w", context.Cause(ctx))
		}
	}
	s.setup = sw.stop()
	return s, nil
}

func (s *session) close() error {
	if s.env == nil {
		return nil
	}
	err := s.env.close()
	s.env = nil
	return err
}

// closeInto closes the session on a function's way out and reports a
// failed tear-down unless the function already failed.
func (s *session) closeInto(err *error) {
	if cerr := s.close(); cerr != nil && *err == nil {
		*err = fmt.Errorf("tear down: %w", cerr)
	}
}

// bytesPerTriple reads the on-disk size of everything under the index
// path against the number of indexed triples.
func (s *session) bytesPerTriple() (float64, error) {
	n, err := s.env.diskBytes()
	if err != nil {
		return 0, err
	}
	return ratio(float64(n), float64(s.env.db.Stats().Triples)), nil
}

// run executes one untraced run: set-up, the timed phase, the end-to-end
// metrics.
func run(ctx context.Context, cfg *config) (rep *report, err error) {
	s, err := open(ctx, cfg)
	defer s.closeInto(&err)
	if err != nil {
		return nil, err
	}
	var bpt float64
	var sizeErr error
	sizeNow := func() { bpt, sizeErr = s.bytesPerTriple() }
	blocks := s.r.runFor(ctx, time.Duration(cfg.seconds*float64(time.Second)), s.r.plainQuery,
		func(done []block) {
			if cfg.workload.writes && len(done) == sizeAtBlock {
				sizeNow()
			}
		})
	if err := context.Cause(ctx); err != nil {
		return nil, fmt.Errorf("interrupted: %w", err)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("no block completed in %g s", cfg.seconds)
	}
	if bpt == 0 {
		sizeNow()
	}
	if sizeErr != nil {
		return nil, fmt.Errorf("index size: %w", sizeErr)
	}
	t := reduce(blocks)
	rep = s.report(map[string]metric{
		"setup_s":                {s.setup.adjusted().Seconds(), "s"},
		"query_p90_ms":           {t.p90, "ms"},
		"index_bytes_per_triple": {bpt, "B"},
		"peak_rss_mb":            {peakRSSMiB(), "MiB"},
	})
	rep.Info = map[string]float64{
		// Demoted to per-layer metrics (README, A/A evidence); an untraced
		// run still measures them, for the snapshots.
		"query_p50_ms":        t.p50,
		"throughput_qps":      t.qps,
		"setup_wall_s":        s.setup.wall.Seconds(),
		"query_p50_wall_ms":   t.wallP50,
		"query_p90_wall_ms":   t.wallP90,
		"throughput_wall_qps": t.wallQPS,
		"steal_share":         1 - ratio(t.adjustedSeconds, t.wallSeconds),
		"setup_steal_share":   1 - s.setup.f,
		"timed_wall_s":        t.wallSeconds,
		"blocks":              float64(len(blocks)),
		"samples":             float64(t.samples),
		"connections":         float64(s.env.wire.dials.Load()),
	}
	return rep, nil
}

// report wraps the metrics with the run's identity and failure count.
func (s *session) report(metrics map[string]metric) *report {
	return &report{
		Workload: s.cfg.workload.name,
		Seed:     s.cfg.seed,
		Seconds:  s.cfg.seconds,
		Trace:    s.cfg.trace,
		Result: result{
			Correct:   s.r.failed == 0,
			Attempted: s.r.attempted,
			Failed:    s.r.failed,
			Metrics:   metrics,
		},
		Notes: append(s.notes, s.r.errs...),
	}
}

// print writes every metric by name and unit, then the notes.
func (rep *report) print(cfg *config) {
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(cfg.log, "workload %s seed %d seconds %g trace %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	for _, name := range names {
		m := rep.Result.Metrics[name]
		fmt.Fprintf(cfg.log, "  %-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	info := make([]string, 0, len(rep.Info))
	for name := range rep.Info {
		info = append(info, name)
	}
	sort.Strings(info)
	for _, name := range info {
		fmt.Fprintf(cfg.log, "  info %-35s %16.6g\n", name, rep.Info[name])
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(cfg.log, "  note %s\n", n)
	}
}

// save writes the report to bench/out/<workload>.json.
func (rep *report) save(cfg *config) error {
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.benchDir, "out", rep.Workload+".json"), append(data, '\n'), 0o644)
}
