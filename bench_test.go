// Benchmarks regenerating every table and figure of the paper's
// evaluation as testing.B targets:
//
//	BenchmarkTable1Indexing    — Table 1: index build per dataset
//	BenchmarkFigure6Cold/Warm  — Figure 6: per-system query latency
//	BenchmarkFigure7a/b/c      — Figure 7: Sama scalability sweeps
//	BenchmarkFigure8           — Figure 8: match counts (reported metric)
//	BenchmarkFigure9           — Figure 9: precision/recall (reported)
//	BenchmarkAlignerAblation   — greedy vs optimal aligner (DESIGN.md)
//
// Scales are kept benchmark-friendly; cmd/experiments runs the full
// wall-clock protocol at larger sizes.
package sama_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"sama/internal/align"
	"sama/internal/core"
	"sama/internal/datasets"
	"sama/internal/eval"
	"sama/internal/experiments"
	"sama/internal/index"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/shard"
	"sama/internal/workload"
)

const benchTriples = 10_000

var (
	benchOnce    sync.Once
	benchSystems []experiments.System
	benchSama    *experiments.SamaSystem
	benchDir     string
)

// systems lazily builds the four systems over one shared LUBM graph.
func systems(b *testing.B) ([]experiments.System, *experiments.SamaSystem) {
	b.Helper()
	benchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "sama-bench-*")
		if err != nil {
			panic(err)
		}
		benchDir = dir
		g := datasets.LUBM{}.Generate(benchTriples, 1)
		ss, err := experiments.NewAllSystems(dir, g)
		if err != nil {
			panic(err)
		}
		benchSystems = ss
		benchSama = ss[0].(*experiments.SamaSystem)
	})
	if benchSystems == nil {
		b.Fatal("benchmark systems failed to build")
	}
	return benchSystems, benchSama
}

// BenchmarkTable1Indexing measures index construction per dataset
// (Table 1's t column; bytes/op approximates allocation pressure, and
// the reported metrics give |HV|, |HE| and disk size).
func BenchmarkTable1Indexing(b *testing.B) {
	for _, gen := range datasets.All() {
		b.Run(gen.Name(), func(b *testing.B) {
			g := gen.Generate(5_000, 1)
			dir := b.TempDir()
			b.ResetTimer()
			var st experiments.Table1Row
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunTable1(dir, []experiments.Table1Scale{
					{Dataset: gen.Name(), Triples: 5_000},
				}, 1)
				if err != nil {
					b.Fatal(err)
				}
				st = rows[0]
			}
			b.ReportMetric(float64(st.HV), "HV")
			b.ReportMetric(float64(st.HE), "HE")
			b.ReportMetric(float64(st.DiskBytes), "disk-bytes")
			_ = g
		})
	}
}

// figure6Queries is the latency subset: a small, a medium and a deep
// query from the 12-query workload.
func figure6Queries() []workload.Query {
	qs := workload.LUBMQueries()
	return []workload.Query{qs[1], qs[3], qs[9]} // Q2, Q4, Q10
}

// BenchmarkFigure6Cold measures per-system cold-cache latency.
func BenchmarkFigure6Cold(b *testing.B) {
	ss, _ := systems(b)
	for _, sys := range ss {
		for _, q := range figure6Queries() {
			b.Run(sys.Name()+"/"+q.ID, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := sys.ColdStart(); err != nil {
						b.Fatal(err)
					}
					if _, err := sys.Run(q, experiments.TopK); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure6Warm measures per-system warm-cache latency.
func BenchmarkFigure6Warm(b *testing.B) {
	ss, _ := systems(b)
	for _, sys := range ss {
		for _, q := range figure6Queries() {
			if _, err := sys.Run(q, experiments.TopK); err != nil {
				b.Fatal(err)
			}
			b.Run(sys.Name()+"/"+q.ID, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sys.Run(q, experiments.TopK); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure7a measures Sama latency as the data (and hence the
// number of extracted paths I) grows.
func BenchmarkFigure7a(b *testing.B) {
	for _, triples := range []int{2_000, 4_000, 8_000} {
		b.Run(itoa(triples), func(b *testing.B) {
			dir := b.TempDir()
			g := datasets.LUBM{}.Generate(triples, 1)
			sys, err := experiments.NewSamaSystem(dir, g)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			q := workload.LUBMQueries()[3]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Run(q, experiments.TopK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchMix runs the Figure 7(a)-style warm query mix (Q2, Q4,
// Q10 — the Figure 6 latency subset) through one default engine over
// the shared LUBM instance. The engine has no answer cache, so every
// iteration runs the cluster and search phases for real; a warm-up lap
// keeps index page reads out of the timing.
func BenchmarkSearchMix(b *testing.B) {
	_, sys := systems(b)
	eng := sys.Engine()
	queries := figure6Queries()
	for _, q := range queries { // warm the page cache and memo
		if _, err := eng.Query(q.Pattern, experiments.TopK); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := eng.Query(q.Pattern, experiments.TopK); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure7b measures Sama latency against query size (chain
// hops; x of Figure 7b is nodes in Q).
func BenchmarkFigure7b(b *testing.B) {
	_, sama := systems(b)
	for _, hops := range []int{1, 2, 4, 6, 8} {
		q := workload.ChainQuery(hops)
		b.Run("nodes-"+itoa(q.Nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sama.Run(q, experiments.TopK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7c measures Sama latency against the number of query
// variables.
func BenchmarkFigure7c(b *testing.B) {
	_, sama := systems(b)
	for v := 1; v <= 7; v += 2 {
		q := workload.VarSweepQuery(v)
		b.Run("vars-"+itoa(v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sama.Run(q, experiments.TopK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure8 runs the unlimited-k effectiveness pass and reports
// the total matches each system identifies (Figure 8's bars).
func BenchmarkFigure8(b *testing.B) {
	ss, _ := systems(b)
	queries := workload.LUBMQueries()[:6]
	for _, sys := range ss {
		b.Run(sys.Name(), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				total = 0
				for _, q := range queries {
					graphs, err := sys.Run(q, experiments.Fig8Limit)
					if err != nil {
						b.Fatal(err)
					}
					total += len(graphs)
				}
			}
			b.ReportMetric(float64(total), "matches")
		})
	}
}

// BenchmarkFigure9 runs the pooled precision/recall evaluation and
// reports Sama's small-|Q| precision at recall 0.5 (a headline point of
// Figure 9).
func BenchmarkFigure9(b *testing.B) {
	ss, sama := systems(b)
	queries := workload.LUBMQueries()[:4]
	var p05 float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.RunFigure9(ss, sama.Graph(), queries, experiments.Fig9Options{PoolDepth: 30})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range curves {
			if c.Label == "Sama |Q| in [1,4]" {
				p05 = c.Points[5].Precision
			}
		}
	}
	b.ReportMetric(p05, "precision@r0.5")
}

// BenchmarkAlignerAblation compares the linear greedy aligner against
// the O(n·m) dynamic-programming oracle on identical inputs — the
// ablation DESIGN.md calls out for the paper's linear-time claim.
func BenchmarkAlignerAblation(b *testing.B) {
	mk := func(n int) paths.Path {
		var p paths.Path
		for i := 0; i < n; i++ {
			p.Nodes = append(p.Nodes, rdf.NewIRI("n"+itoa(i%7)))
			if i < n-1 {
				p.Edges = append(p.Edges, rdf.NewIRI("e"+itoa(i%3)))
			}
		}
		return p
	}
	for _, size := range []int{8, 32, 128} {
		p, q := mk(size), mk(size/2)
		b.Run("greedy-"+itoa(size), func(b *testing.B) {
			g := align.NewGreedy(align.DefaultParams)
			for i := 0; i < b.N; i++ {
				g.Align(p, q)
			}
		})
		b.Run("optimal-"+itoa(size), func(b *testing.B) {
			o := align.NewOptimal(align.DefaultParams)
			for i := 0; i < b.N; i++ {
				o.Align(p, q)
			}
		})
	}
}

// BenchmarkCompressionAblation builds the same LUBM graph with and
// without dictionary compression, reporting the disk footprint (the §7
// compression extension).
func BenchmarkCompressionAblation(b *testing.B) {
	g := datasets.LUBM{}.Generate(5_000, 1)
	for _, variant := range []struct {
		name     string
		compress bool
	}{{"plain", false}, {"compressed", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var disk int64
			for i := 0; i < b.N; i++ {
				idx, err := index.Build(b.TempDir()+"/ix", g, index.Options{Compress: variant.compress})
				if err != nil {
					b.Fatal(err)
				}
				disk = idx.Stats().DiskBytes
				idx.Close()
			}
			b.ReportMetric(float64(disk), "disk-bytes")
		})
	}
}

// BenchmarkIncrementalInsert compares applying a small batch of new
// triples incrementally against rebuilding the index (the §7 index
// update extension).
func BenchmarkIncrementalInsert(b *testing.B) {
	ns := datasets.LUBMNamespace
	batch := []rdf.Triple{
		{S: rdf.NewIRI(ns + "NewStudent"),
			P: rdf.NewIRI(ns + "vocab/memberOf"),
			O: rdf.NewIRI(ns + "University0/Department0")},
	}
	b.Run("incremental", func(b *testing.B) {
		g := datasets.LUBM{}.Generate(5_000, 1)
		idx, err := index.Build(b.TempDir()+"/ix", g, index.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := idx.InsertTriples(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		g := datasets.LUBM{}.Generate(5_000, 1)
		for _, t := range batch {
			g.AddTriple(t)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx, err := index.Build(b.TempDir()+"/ix", g, index.Options{})
			if err != nil {
				b.Fatal(err)
			}
			idx.Close()
		}
	})
}

// BenchmarkRR reports the mean reciprocal rank over the workload — the
// §6.3 check as a regression guard.
func BenchmarkRR(b *testing.B) {
	_, sama := systems(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRR(sama, workload.LUBMQueries()[:6], 10)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.RR
		}
		mean = sum / float64(len(rows))
	}
	b.ReportMetric(mean, "MRR")
	_ = eval.ReciprocalRank
}

// benchPhaseRow is one query's entry in results/bench_latest.json.
// phase_median_ns is the p50; phase_p99_ns the p99 over the same
// samples (each query runs benchPhaseReps times per b.N iteration, so
// the percentiles rest on at least that many runs).
type benchPhaseRow struct {
	Query      string           `json:"query"`
	Runs       int              `json:"runs"`
	Answers    int              `json:"answers"`
	Phases     map[string]int64 `json:"phase_median_ns"`
	PhasesP99  map[string]int64 `json:"phase_p99_ns"`
	TotalNS    int64            `json:"total_median_ns"`
	TotalP99NS int64            `json:"total_p99_ns"`
}

// benchCacheReport records the warm-cache measurement: the same query
// set through a cache-enabled engine, cold (miss, populating) vs warm
// (answer-cache hits), with the observed hit ratio.
type benchCacheReport struct {
	UncachedMedianNS int64   `json:"uncached_median_ns"`
	CachedMedianNS   int64   `json:"cached_median_ns"`
	Speedup          float64 `json:"speedup"`
	HitRate          float64 `json:"hit_rate"`
}

// benchDurabilityReport records the durable write path's cost and the
// recovery/compaction latencies: ingest throughput without a WAL, with
// a WAL and one writer (every batch pays its own fsync), and with a WAL
// under concurrent writers (group commit amortises the fsyncs — the
// batching factor is appends per sync), plus the crash-recovery replay
// time over the same workload and the incremental compaction pause
// distribution (p99 and max over the per-batch lock holds).
type benchDurabilityReport struct {
	IngestTriples          int     `json:"ingest_triples"`
	NoWALTriplesPerSec     float64 `json:"no_wal_triples_per_sec"`
	WALSerialTriplesPerSec float64 `json:"wal_serial_triples_per_sec"`
	WALGroupTriplesPerSec  float64 `json:"wal_group_triples_per_sec"`
	GroupCommitWriters     int     `json:"group_commit_writers"`
	GroupCommitBatching    float64 `json:"group_commit_batching"`
	RecoveryRecords        int     `json:"recovery_records"`
	RecoveryTriples        int     `json:"recovery_triples"`
	RecoveryReplayNS       int64   `json:"recovery_replay_ns"`
	CompactBatches         int     `json:"compact_batches"`
	CompactPauseP99NS      int64   `json:"compact_pause_p99_ns"`
	CompactMaxPauseNS      int64   `json:"compact_max_pause_ns"`
}

// benchShardRow is one shard count's measurement of the sharded
// engine: cluster/search phase medians, and the merge overhead — the
// median cluster duration beyond the monolithic engine's on the same
// graph and query, i.e. what gathering postings and splitting reads
// across the shards costs on top of the shared cluster builder (noise
// can make it negative).
type benchShardRow struct {
	Shards          int   `json:"shards"`
	ClusterMedianNS int64 `json:"cluster_median_ns"`
	SearchMedianNS  int64 `json:"search_median_ns"`
	MergeOverheadNS int64 `json:"merge_overhead_median_ns"`
}

// benchShardReport records the sharded-engine sweep on the Fig. 7(a)
// configuration. Answers are identical at every shard count
// (TestShardEquivalence); what varies is how the candidate work
// splits across shards and what the merge costs on top.
type benchShardReport struct {
	Triples                 int             `json:"triples"`
	Query                   string          `json:"query"`
	MonolithClusterMedianNS int64           `json:"monolith_cluster_median_ns"`
	Rows                    []benchShardRow `json:"per_shard_count"`
}

// benchPhaseReport is the file schema for results/bench_latest.json.
type benchPhaseReport struct {
	Dataset    string                 `json:"dataset"`
	Triples    int                    `json:"triples"`
	Queries    []benchPhaseRow        `json:"queries"`
	Cache      *benchCacheReport      `json:"cache,omitempty"`
	Shard      *benchShardReport      `json:"shard,omitempty"`
	Durability *benchDurabilityReport `json:"durability,omitempty"`
}

func medianDuration(ds []time.Duration) int64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return int64(ds[len(ds)/2])
}

// durationPercentile returns the q-th percentile (0–100, nearest rank)
// of ds, sorting ds in place.
func durationPercentile(ds []time.Duration, q float64) int64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(float64(len(ds)-1)*q/100.0 + 0.5)
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return int64(ds[idx])
}

// benchPhaseReps is how many times each query runs per b.N iteration of
// BenchmarkPhaseBreakdown, so the p50/p99 per-phase percentiles rest on
// at least 5 samples even at -benchtime=1x (the `make bench` setting).
const benchPhaseReps = 5

// BenchmarkPhaseBreakdown is the smoke harness behind `make bench`: it
// runs a subset of the LUBM workload through the traced engine and
// writes per-phase median durations (taken from the query traces) to
// results/bench_latest.json. It stays meaningful at -benchtime=1x —
// every b.N iteration replays the whole query set, and medians are
// computed over all replays.
func BenchmarkPhaseBreakdown(b *testing.B) {
	_, sys := systems(b)
	eng := sys.Engine()
	queries := figure6Queries()
	phaseNames := []string{"decompose", "cluster", "search", "assemble"}
	samples := make(map[string]map[string][]time.Duration, len(queries))
	totals := make(map[string][]time.Duration, len(queries))
	answers := make(map[string]int, len(queries))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rep := 0; rep < benchPhaseReps; rep++ {
			for _, q := range queries {
				as, st, err := eng.QueryWithStats(q.Pattern, experiments.TopK)
				if err != nil {
					b.Fatal(err)
				}
				if st.Trace == nil {
					b.Fatal("query produced no trace")
				}
				if samples[q.ID] == nil {
					samples[q.ID] = make(map[string][]time.Duration, len(phaseNames))
				}
				for _, ph := range phaseNames {
					samples[q.ID][ph] = append(samples[q.ID][ph], st.Trace.PhaseDuration(ph))
				}
				totals[q.ID] = append(totals[q.ID], st.Elapsed)
				answers[q.ID] = len(as)
			}
		}
	}
	b.StopTimer()
	report := benchPhaseReport{Dataset: "LUBM", Triples: benchTriples}
	for _, q := range queries {
		row := benchPhaseRow{
			Query:      q.ID,
			Runs:       len(totals[q.ID]),
			Answers:    answers[q.ID],
			Phases:     make(map[string]int64, len(phaseNames)),
			PhasesP99:  make(map[string]int64, len(phaseNames)),
			TotalNS:    medianDuration(totals[q.ID]),
			TotalP99NS: durationPercentile(totals[q.ID], 99),
		}
		for _, ph := range phaseNames {
			row.Phases[ph] = medianDuration(samples[q.ID][ph])
			row.PhasesP99[ph] = durationPercentile(samples[q.ID][ph], 99)
		}
		report.Queries = append(report.Queries, row)
		b.ReportMetric(float64(row.TotalNS), q.ID+"-median-ns")
	}
	// Warm-cache measurement: the same queries through a cache-enabled
	// engine over the same index. The first pass misses and populates;
	// the warm passes must hit (no writes happen between them).
	cacheEng := core.New(sys.Index(), core.Options{AnswerCacheEntries: 256, AlignCacheMB: 16})
	var uncached, cached []time.Duration
	for _, q := range queries {
		_, st, err := cacheEng.QueryWithStats(q.Pattern, experiments.TopK)
		if err != nil {
			b.Fatal(err)
		}
		if st.CacheHit {
			b.Fatal("cold pass hit the cache")
		}
		uncached = append(uncached, st.Elapsed)
	}
	for i := 0; i < 5; i++ {
		for _, q := range queries {
			_, st, err := cacheEng.QueryWithStats(q.Pattern, experiments.TopK)
			if err != nil {
				b.Fatal(err)
			}
			if !st.CacheHit {
				b.Fatal("warm pass missed the cache")
			}
			cached = append(cached, st.Elapsed)
		}
	}
	cr := &benchCacheReport{
		UncachedMedianNS: medianDuration(uncached),
		CachedMedianNS:   medianDuration(cached),
		HitRate:          cacheEng.CacheStats()["answer"].HitRate(),
	}
	if cr.CachedMedianNS > 0 {
		cr.Speedup = float64(cr.UncachedMedianNS) / float64(cr.CachedMedianNS)
	}
	report.Cache = cr
	b.ReportMetric(cr.Speedup, "cache-speedup")
	b.ReportMetric(cr.HitRate, "cache-hit-rate")

	report.Shard = measureSharding(b)
	for _, row := range report.Shard.Rows {
		b.ReportMetric(float64(row.ClusterMedianNS), fmt.Sprintf("shard%d-cluster-ns", row.Shards))
	}

	report.Durability = measureDurability(b)
	b.ReportMetric(report.Durability.WALGroupTriplesPerSec, "wal-group-triples/s")
	b.ReportMetric(float64(report.Durability.RecoveryReplayNS), "recovery-replay-ns")
	b.ReportMetric(float64(report.Durability.CompactPauseP99NS), "compact-pause-p99-ns")

	if err := os.MkdirAll("results", 0o755); err != nil {
		b.Fatal(err)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("results", "bench_latest.json"), append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// measureSharding runs the Fig. 7(a) configuration (LUBM, Q4) through
// the monolithic engine and the in-process sharded engine at 1, 2 and
// 4 shards, reading the cluster/search phase durations from the query
// traces. The engines take turns within each repetition, so a row's
// merge overhead — the median of its cluster duration minus the
// monolith's in the same repetition — is not an artefact of when in the
// run each engine was measured.
func measureSharding(b *testing.B) *benchShardReport {
	b.Helper()
	const (
		shardTriples = 8_000
		reps         = 15
	)
	g := datasets.LUBM{}.Generate(shardTriples, 1)
	q := workload.LUBMQueries()[3] // Q4, the Fig. 7(a) query
	rep := &benchShardReport{Triples: shardTriples, Query: q.ID}

	mono, err := index.Build(filepath.Join(b.TempDir(), "mono"), g, index.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer mono.Close()
	counts := []int{1, 2, 4}
	engines := []*core.Engine{core.New(mono, core.Options{})}
	for _, n := range counts {
		set, err := shard.Build(filepath.Join(b.TempDir(), fmt.Sprintf("n%d", n)), g, shard.Options{Shards: n})
		if err != nil {
			b.Fatal(err)
		}
		defer set.Close()
		engines = append(engines, core.NewSharded(set, core.Options{}))
	}
	cluster := make([][]time.Duration, len(engines))
	search := make([][]time.Duration, len(engines))
	for r := 0; r < reps; r++ {
		for i, eng := range engines {
			_, st, err := eng.QueryWithStats(q.Pattern, experiments.TopK)
			if err != nil {
				b.Fatal(err)
			}
			cluster[i] = append(cluster[i], st.Trace.PhaseDuration("cluster"))
			search[i] = append(search[i], st.Trace.PhaseDuration("search"))
		}
	}
	for _, eng := range engines {
		eng.Close()
	}
	for i, n := range counts {
		// Pair the repetitions before medianDuration sorts the samples.
		over := make([]time.Duration, reps)
		for r := range over {
			over[r] = cluster[i+1][r] - cluster[0][r]
		}
		rep.Rows = append(rep.Rows, benchShardRow{
			Shards:          n,
			ClusterMedianNS: medianDuration(cluster[i+1]),
			SearchMedianNS:  medianDuration(search[i+1]),
			MergeOverheadNS: medianDuration(over),
		})
	}
	rep.MonolithClusterMedianNS = medianDuration(cluster[0])
	return rep
}

// measureDurability runs the durable-write-path measurements on their
// own small index (separate from the shared query systems): ingest
// throughput across the three durability modes, the crash-recovery
// replay over the WAL ingest's log, and the incremental compaction
// pause distribution over the tombstones the inserts left behind.
func measureDurability(b *testing.B) *benchDurabilityReport {
	b.Helper()
	const (
		baseTriples = 2_000
		batchSize   = 25
		batches     = 40
		walWriters  = 8
	)
	// The insert workload: triples from a second-seed LUBM instance the
	// base graph does not contain, in fixed-size batches.
	extra := datasets.LUBM{}.Generate(baseTriples, 2).Triples()
	if len(extra) < batchSize*batches {
		b.Fatalf("insert workload too small: %d triples", len(extra))
	}
	batch := func(i int) []rdf.Triple { return extra[i*batchSize : (i+1)*batchSize] }
	rep := &benchDurabilityReport{
		IngestTriples:      batchSize * batches,
		GroupCommitWriters: walWriters,
	}

	// No WAL: the in-memory/page path alone.
	plain, err := index.Build(b.TempDir()+"/ix", datasets.LUBM{}.Generate(baseTriples, 1), index.Options{})
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < batches; i++ {
		if err := plain.InsertTriples(batch(i)); err != nil {
			b.Fatal(err)
		}
	}
	rep.NoWALTriplesPerSec = float64(rep.IngestTriples) / time.Since(start).Seconds()

	// WAL, one writer: every batch is fsynced before it is acknowledged.
	serialDir := b.TempDir()
	serial, err := index.Build(serialDir+"/ix", datasets.LUBM{}.Generate(baseTriples, 1), index.Options{
		WALDir: serialDir + "/wal", CheckpointBytes: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	start = time.Now()
	for i := 0; i < batches; i++ {
		if err := serial.InsertTriples(batch(i)); err != nil {
			b.Fatal(err)
		}
	}
	rep.WALSerialTriplesPerSec = float64(rep.IngestTriples) / time.Since(start).Seconds()

	// Crash recovery over that log: abandon the handle (no Close, no
	// checkpoint — every batch is pending) and replay on a fresh open.
	re, err := index.Open(serialDir+"/ix", index.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rs, err := re.Recover(datasets.LUBM{}.Generate(baseTriples, 1))
	if err != nil {
		b.Fatal(err)
	}
	rep.RecoveryRecords = rs.Records
	rep.RecoveryTriples = rs.Triples
	rep.RecoveryReplayNS = int64(rs.Replay)

	// Compaction pauses: the recovered index holds the tombstones the
	// re-enumerating inserts left; compact it in small steps and record
	// the per-batch lock holds.
	cs, err := re.CompactIncremental(context.Background(), 64)
	if err != nil {
		b.Fatal(err)
	}
	rep.CompactBatches = cs.Batches
	rep.CompactMaxPauseNS = int64(cs.MaxPause)
	if len(cs.Pauses) > 0 {
		ps := append([]time.Duration(nil), cs.Pauses...)
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		rep.CompactPauseP99NS = int64(ps[len(ps)*99/100])
	}
	re.Close()

	// WAL, concurrent writers: group commit shares fsyncs across the
	// batches that pile up behind the in-flight leader.
	groupDir := b.TempDir()
	group, err := index.Build(groupDir+"/ix", datasets.LUBM{}.Generate(baseTriples, 1), index.Options{
		WALDir: groupDir + "/wal", CheckpointBytes: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer group.Close()
	var wg sync.WaitGroup
	errs := make([]error, walWriters)
	start = time.Now()
	for w := 0; w < walWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < batches; i += walWriters {
				if err := group.InsertTriples(batch(i)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	rep.WALGroupTriplesPerSec = float64(rep.IngestTriples) / time.Since(start).Seconds()
	if st, ok := group.WALStats(); ok && st.Syncs > 0 {
		rep.GroupCommitBatching = float64(st.Appends) / float64(st.Syncs)
	}
	plain.Close()
	return rep
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
