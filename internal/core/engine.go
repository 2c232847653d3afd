// Package core implements the Sama approximate query answering engine
// (§5 of the paper). Query answering runs in three steps:
//
//  1. Preprocessing: the query graph is decomposed into its paths PQ and
//     the intersection query graph (IG) is built — one node per query
//     path, an edge between paths sharing nodes.
//  2. Clustering: for each query path q, the candidate data paths are
//     retrieved through the path index (by matching sink, falling back
//     to the first constant from the end when the sink is a variable),
//     aligned against q, and ordered by λ score, best first.
//  3. Search: the top-k answers are generated by combining the best
//     paths across clusters in increasing Λ order, verifying conformity
//     through the intersection graph and scoring each combination with
//     score = Λ + Ψ.
//
// The search is monotone: answers are emitted in non-decreasing score
// order, so the reciprocal rank of the most relevant answer is 1 (§6.3).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sama/internal/align"
	"sama/internal/cache"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
)

// Options tunes the engine.
type Options struct {
	// Params are the scoring coefficients (zero value:
	// align.DefaultParams).
	Params align.Params
	// MaxCandidatesPerCluster caps each cluster's size after ranking
	// (0 = 512). The cap bounds the combination search frontier.
	MaxCandidatesPerCluster int
	// MaxCombinations caps the number of path combinations the search
	// visits (0 = 65536); a safety valve for adversarial queries.
	MaxCombinations int
	// RawChi scores conformity with the literal label-overlap χ of the
	// paper's displayed formula instead of the alignment-aware χ (see
	// DESIGN.md §4.3). For ablation only: raw χ lets incidentally
	// shared nodes (class sinks) mask binding disagreements, breaking
	// the RR = 1 property on type-annotated data.
	RawChi bool
	// Metrics, when set, receives the engine's fleet-wide counters:
	// queries executed, end-to-end latency histogram, extracted paths,
	// and partial/stop-reason counters. Nil disables metric recording
	// (per-query traces are always produced).
	Metrics *obs.Registry
}

// maxTieVisits bounds the combinations explored once the k-th best
// score already equals the frontier's lower bound — the remaining
// candidates can only improve conformity-degree tie-breaks, not scores.
const maxTieVisits = 2048

// maxClusterFallback caps the candidate set retrieved when a query path
// contains no constant at all (fallbackScan).
const maxClusterFallback = 256

func (o Options) params() align.Params {
	if o.Params == (align.Params{}) {
		return align.DefaultParams
	}
	return o.Params
}

// maxCandidatesBound caps MaxCandidatesPerCluster. Beyond this the
// combination search stops being tractable, and the frontier stores each
// candidate index as a uint32 (keyTerm packs it beside the cluster
// position into one 64-bit word); the bound is enforced where the option
// is normalised so no packed-width assumption is ever exceeded.
const maxCandidatesBound = 1 << 20

func (o Options) maxCandidates() int {
	if o.MaxCandidatesPerCluster <= 0 {
		return 512
	}
	if o.MaxCandidatesPerCluster > maxCandidatesBound {
		return maxCandidatesBound
	}
	return o.MaxCandidatesPerCluster
}

func (o Options) maxCombinations() int {
	if o.MaxCombinations <= 0 {
		return 65536
	}
	return o.MaxCombinations
}

// alignMemoBytes is the alignment memo's byte budget. The memo is
// exact — entries are epoch-checked, and one stored before a write is
// served again only when the writes since leave its pre-rank cut
// unchanged — so answers are the same whatever the budget. An entry is
// charged what it pins (memoSize), ≈ 115 B per kept item on LUBM.
const alignMemoBytes = 64 << 20

// backend is the read surface the cluster phase works through: the
// method set of the index.Reader of the query's one View (the search
// phase never touches the index). It is an interface only so that tests
// can wrap the reader (Engine.wrap). Live must gate every scan of
// [0, NumPaths): inserts tombstone IDs. The pre-rank reads
// SummariesInto (per-path length + signature), LabelProbeMask and
// PathsByAllLabelsAmong; a stale memo entry's re-confirmation reads
// those and, since its watermark, PostingsFrom and TombstonedSince.
//
// PathsBySinkInto, PathsByLabelInto and SummariesInto work in the index
// part of the cluster build's pooled scratch: their results alias it and
// are dead once it is released (see clusterScratch).
type backend interface {
	Epoch() uint64
	Layout() uint64
	Watermark() index.Watermark
	NumPaths() int
	Live(id index.PathID) bool
	SummariesInto(sc *index.Scratch, ids []index.PathID) ([]index.PathSummary, error)
	LabelProbeMask(label string) uint64
	PathsBySinkInto(sc *index.Scratch, label string) []index.PathID
	PathsByLabelInto(sc *index.Scratch, label string) []index.PathID
	PathsByAllLabelsAmong(dst, cands []index.PathID, labels []string, limit int) []index.PathID
	PostingsFrom(dst []index.PathID, f index.Field, label string, from index.PathID) []index.PathID
	TombstonedSince(w index.Watermark, f index.Field, label string) []index.PathID
	ReadPathsBatched(ctx context.Context, ids []index.PathID) ([][]uint32, storage.Reads, error)
	Terms() index.Terms
	TermID(t rdf.Term) (uint32, bool)
}

// Engine answers approximate queries over one opened path index.
type Engine struct {
	idx *index.Index
	// wrap, when a test sets it, wraps the reader of every View.
	wrap func(backend) backend
	opts Options
	par  align.Params
	met  *engineMetrics
	// alignMemo is the alignment memo (see cache.go): one entry per
	// query path, the whole ranked cluster of aligned data paths it
	// produced, short-circuiting buildCluster's retrieval, disk reads and
	// alignments across queries sharing path shapes.
	alignMemo *cache.Cache
}

// engineMetrics are the registry handles the engine records into; nil
// when Options.Metrics is unset.
type engineMetrics struct {
	reg       *obs.Registry
	queries   *obs.Counter
	partial   *obs.Counter
	latency   *obs.Histogram
	extracted *obs.Counter
}

// New returns an engine over the index.
func New(idx *index.Index, opts Options) *Engine {
	e := &Engine{idx: idx, opts: opts, par: opts.params(), alignMemo: cache.New(alignMemoBytes)}
	registerCacheMetrics(opts.Metrics, cacheAlign, e.alignMemo)
	if reg := opts.Metrics; reg != nil {
		e.met = &engineMetrics{
			reg: reg,
			queries: reg.Counter("sama_queries_total",
				"Queries executed."),
			partial: reg.Counter("sama_query_partial_total",
				"Queries that stopped early and returned a best-so-far prefix."),
			latency: reg.Histogram("sama_query_seconds",
				"End-to-end query latency.", nil),
			extracted: reg.Counter("sama_extracted_paths_total",
				"Candidate paths retrieved across all clusters (I of Figure 7)."),
		}
	}
	return e
}

// Params returns the scoring coefficients in use.
func (e *Engine) Params() align.Params { return e.par }

// Index returns the underlying path index.
func (e *Engine) Index() *index.Index { return e.idx }

// view runs fn on the reader of one index View (see index.View: nothing
// fn calls may take the index lock again).
func (e *Engine) view(fn func(backend) error) error {
	return e.idx.View(func(r index.Reader) error {
		if e.wrap != nil {
			return fn(e.wrap(r))
		}
		return fn(r)
	})
}

// Close does nothing: the engine owns no goroutines and does not own
// the index. It stays only because bench/trace.go calls it and bench/
// is frozen for the PR that removed the alignment worker pool.
func (e *Engine) Close() {}

// DropCaches empties the engine's one in-memory cache, the alignment
// memo. Callers measuring cold-state performance pair this with
// Index.DropCache, which empties the buffer pool; without it a repeated
// query can be served from the memo with zero page reads.
func (e *Engine) DropCaches() {
	e.alignMemo.Purge()
}

// Query returns the top-k answers to the query graph, ordered by
// non-decreasing score. k ≤ 0 means no limit (every combination the
// search visits is returned; use with care).
func (e *Engine) Query(q *rdf.QueryGraph, k int) ([]Answer, error) {
	answers, _, err := e.QueryWithStats(q, k)
	return answers, err
}

// QueryContext is Query under a context: on cancellation or deadline
// the search stops at the next checkpoint and the answers found so far
// are returned (no error). The monotone emission order makes that
// prefix exactly the best answers discovered up to the stop, so a
// non-empty prefix keeps the RR = 1 property. Use QueryWithStatsContext
// to observe whether the result was truncated.
func (e *Engine) QueryContext(ctx context.Context, q *rdf.QueryGraph, k int) ([]Answer, error) {
	answers, _, err := e.QueryWithStatsContext(ctx, q, k)
	return answers, err
}

// StopReason says why a query stopped before exhausting its search
// space.
type StopReason string

const (
	// StopNone: the search ran to completion.
	StopNone StopReason = ""
	// StopDeadline: the context's deadline fired mid-query.
	StopDeadline StopReason = "deadline exceeded"
	// StopCancelled: the context was cancelled mid-query.
	StopCancelled StopReason = "cancelled"
)

// reasonFor maps a context error to its StopReason.
func reasonFor(err error) StopReason {
	switch {
	case err == nil:
		return StopNone
	case errors.Is(err, context.DeadlineExceeded):
		return StopDeadline
	default:
		return StopCancelled
	}
}

// QueryStats instruments one query execution; it backs the Figure 7
// scalability analysis (time vs the number I of extracted paths).
type QueryStats struct {
	// QueryPaths is |PQ|, the number of paths the query decomposed into.
	QueryPaths int
	// Extracted is I: the total number of candidate paths the index
	// returned across all clusters (before the per-cluster cap).
	Extracted int
	// Elapsed is the end-to-end execution time (preprocessing,
	// clustering and search).
	Elapsed time.Duration
	// Partial reports that the query stopped early (context cancelled
	// or deadline exceeded) and the answers are the best-so-far prefix
	// rather than the full top-k.
	Partial bool
	// StopReason says why a partial query stopped.
	StopReason StopReason
	// Trace is the per-phase span tree of this execution: decompose,
	// cluster (with one child span per query path's alignment pass),
	// search and assemble, plus the storage-level I/O attribution.
	// Always recorded (the overhead is a few allocations per query);
	// read-only once returned.
	Trace *obs.Trace
}

// QueryWithStats is Query plus execution statistics.
func (e *Engine) QueryWithStats(q *rdf.QueryGraph, k int) ([]Answer, QueryStats, error) {
	return e.QueryWithStatsContext(context.Background(), q, k)
}

// Plan reduces this execution's trace to its deterministic explain
// plan: the span tree's decision counters, without timings or IDs.
func (st QueryStats) Plan() *obs.Plan { return obs.BuildPlan(st.Trace) }

// QueryWithStatsContext is QueryContext plus execution statistics.
// Cancellation is cooperative: the clustering loop and the search
// frontier loop check the context every iteration, so a deadline stops
// the query within a bounded amount of extra work. An already-expired
// context returns immediately with no answers and Partial set.
//
// Every cluster is read from one index state: the cluster phase runs
// inside one index.View, so an insert or a compaction swap waits for it
// rather than landing between two of its reads. Search and assembly
// hold no lock.
func (e *Engine) QueryWithStatsContext(ctx context.Context, q *rdf.QueryGraph, k int) ([]Answer, QueryStats, error) {
	if q.EdgeCount() == 0 {
		return nil, QueryStats{}, fmt.Errorf("core: empty query graph")
	}
	tr := obs.NewTrace()
	st := QueryStats{Trace: tr}
	// A query reads pages only through its clusters' batched reads, so
	// its page work is theirs summed: each concurrent query counts
	// exactly its own (the pool's global counters keep running for the
	// fleet-wide view).
	var reads storage.Reads
	finish := func(answers []Answer, err error) ([]Answer, QueryStats, error) {
		st.Elapsed = time.Since(tr.Begin)
		tr.Total = st.Elapsed
		tr.IO = obs.IOStats{
			PageReads:   uint64(reads.Pages),
			CacheHits:   uint64(reads.Pages - reads.Misses),
			CacheMisses: uint64(reads.Misses),
		}
		tr.Answers = len(answers)
		tr.Partial = st.Partial
		tr.StopReason = string(st.StopReason)
		e.record(&st)
		return answers, st, err
	}
	if err := ctx.Err(); err != nil {
		st.Partial = true
		st.StopReason = reasonFor(err)
		return finish(nil, nil)
	}

	sp := tr.Phase("decompose")
	pre := e.Preprocess(q)
	st.QueryPaths = len(pre.Paths)
	sp.Set("query_paths", int64(len(pre.Paths)))
	sp.End()

	sp = tr.Phase("cluster")
	var clusters []Cluster
	err := e.view(func(r backend) (err error) {
		clusters, err = e.clusterTraced(ctx, r, pre, sp)
		return err
	})
	if err != nil {
		sp.End()
		return finish(nil, err)
	}
	var kept int
	for _, cl := range clusters {
		st.Extracted += cl.Retrieved
		kept += len(cl.Items)
		reads = reads.Add(cl.reads)
	}
	sp.Set("retrieved", int64(st.Extracted))
	sp.Set("kept", int64(kept))
	sp.End()

	answers := e.searchTraced(ctx, pre, clusters, k, tr)
	if err := ctx.Err(); err != nil {
		st.Partial = true
		st.StopReason = reasonFor(err)
	}
	return finish(answers, nil)
}

// stopHelp documents the stop-reason counter family.
const stopHelp = "Early query stops by reason (deadline, cancellation)."

// record publishes one finished query into the metrics registry.
func (e *Engine) record(st *QueryStats) {
	if e.met == nil {
		return
	}
	e.met.queries.Inc()
	e.met.latency.Observe(st.Elapsed.Seconds())
	e.met.extracted.Add(uint64(st.Extracted))
	if st.Partial {
		e.met.partial.Inc()
		e.met.reg.Counter("sama_query_stop_total", stopHelp,
			"reason", string(st.StopReason)).Inc()
	}
}

// Preprocessed carries the result of the preprocessing step: the query
// paths PQ and the intersection query graph over them.
type Preprocessed struct {
	// Query is the input query graph.
	Query *rdf.QueryGraph
	// Paths is PQ: the source-to-sink paths of the query.
	Paths []paths.Path
	// IG is the intersection query graph: IG[i] lists the indices j of
	// the query paths sharing at least one node with path i, with the
	// shared node count |χ(qi, qj)| attached.
	IG [][]IGEdge
}

// IGEdge is one edge of the intersection query graph.
type IGEdge struct {
	// To is the index of the adjacent query path.
	To int
	// Chi is |χ(qi, qj)|, the number of shared node labels.
	Chi int
}

// Preprocess decomposes the query into PQ and builds the intersection
// query graph (§5, Preprocessing).
func (e *Engine) Preprocess(q *rdf.QueryGraph) *Preprocessed {
	pq := paths.Decompose(q)
	ig := make([][]IGEdge, len(pq))
	for i := 0; i < len(pq); i++ {
		for j := i + 1; j < len(pq); j++ {
			chi := len(paths.CommonNodes(pq[i], pq[j]))
			if chi == 0 {
				continue
			}
			ig[i] = append(ig[i], IGEdge{To: j, Chi: chi})
			ig[j] = append(ig[j], IGEdge{To: i, Chi: chi})
		}
	}
	return &Preprocessed{Query: q, Paths: pq, IG: ig}
}
