// Package sama is an approximate query answering engine for RDF data,
// implementing the path-alignment similarity measure of De Virgilio,
// Maccioni and Torlone, “A Similarity Measure for Approximate Querying
// over RDF Data” (EDBT 2013).
//
// Sama evaluates the similarity between a (small) query graph and
// portions of a (large) RDF data graph in linear time per path
// alignment: the query is decomposed into source-to-sink paths, each
// path is matched against a disk-resident path index, and the best
// combinations of data paths are returned as ranked answers under
//
//	score(a, Q) = Λ(a, Q) + Ψ(a, Q)
//
// where Λ measures how well the answer's paths align with the query's
// (insertion/mismatch weighted edit steps) and Ψ how well their
// interconnections conform to the query's (shared-node ratios). Lower
// scores are more relevant; answers arrive in non-decreasing score
// order, so the first answer is always a most-relevant one.
//
// # Quick start
//
//	g, _ := sama.LoadNTriplesFile("data.nt")
//	db, _ := sama.Create("/tmp/myindex", g)
//	defer db.Close()
//	res, _ := db.QuerySPARQL(`SELECT ?x WHERE { ?x <gender> "Male" }`, 10)
//	for _, a := range res.Answers {
//		fmt.Println(a.Score, a.Bindings(res.Vars))
//	}
//
// The index persists on disk, data graph included: later processes call
// sama.Open with the same base path, and can query and Insert at once.
// All path reads go through a buffer pool; DropCache
// returns the store to a cold state (used by the paper's cold-cache
// experiments).
package sama

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync/atomic"

	"sama/internal/align"
	"sama/internal/cache"
	"sama/internal/core"
	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/rdf/ntriples"
	"sama/internal/rdf/turtle"
	"sama/internal/server"
	"sama/internal/sparql"
	"sama/internal/storage"
	"sama/internal/textindex"
)

// Re-exported model types. The aliases give external users full access
// to the data model while the implementation stays in internal
// packages.
type (
	// Term is one RDF term: the label of a node or edge.
	Term = rdf.Term
	// Triple is one RDF statement.
	Triple = rdf.Triple
	// Graph is an RDF data graph (Definition 1 of the paper).
	Graph = rdf.Graph
	// QueryGraph is a query graph: a data graph with variables
	// (Definition 2).
	QueryGraph = rdf.QueryGraph
	// Substitution maps variable names to constant terms.
	Substitution = rdf.Substitution
	// Answer is one ranked approximate answer.
	Answer = core.Answer
	// Params holds the similarity coefficients a, b, c, d, e (§6.2).
	Params = align.Params
	// Path is a source-to-sink label path (Definition 5).
	Path = paths.Path
	// PathConfig bounds path enumeration during indexing.
	PathConfig = paths.Config
	// Thesaurus provides semantic label expansion (WordNet's role in
	// the paper's prototype).
	Thesaurus = textindex.Thesaurus
	// IndexStats describes a built index (the Table 1 measurements).
	IndexStats = index.Stats
	// PoolStats counts buffer pool traffic (cold/warm cache analysis).
	PoolStats = storage.PoolStats
	// QueryStats instruments one query execution, including whether it
	// stopped early (Partial) and why (StopReason).
	QueryStats = core.QueryStats
	// StopReason says why a query stopped before exhausting its search
	// space (deadline, cancellation).
	StopReason = core.StopReason
	// Trace is the per-phase observability record of one query: a span
	// tree (decompose, cluster, search, assemble) with storage-level
	// I/O attribution. QueryStats.Trace carries it; DB.LastQueries
	// replays it.
	Trace = obs.Trace
	// Span is one timed phase (or sub-phase) inside a Trace.
	Span = obs.Span
	// Plan is the deterministic explain plan of one query execution:
	// the trace's span tree reduced to its decision counters, without
	// timings or IDs (DB.Explain, QueryStats.Plan, `sama query
	// -explain`, the server's ?explain=1).
	Plan = obs.Plan
	// PlanNode is one node of an explain Plan.
	PlanNode = obs.PlanNode
	// TraceIO is the storage attribution of one query: the page reads
	// its clusters' batched reads returned, split into cache hits and
	// misses.
	TraceIO = obs.IOStats
	// MetricsRegistry is the per-DB metrics registry: atomic counters,
	// gauges and fixed-bucket histograms with Prometheus text
	// exposition (DB.Metrics, served at /metrics by DB.DebugHandler).
	MetricsRegistry = obs.Registry
	// CacheStats snapshots one cache's counters (DB.CacheStats).
	CacheStats = cache.Stats
	// ServerOptions configure the network query server (DB.Handler,
	// DB.Serve): concurrency limit, wait-queue bound, queue timeout,
	// per-request timeout cap, k defaults and body limit.
	ServerOptions = server.Options
	// QueryHandler is the network query server's http.Handler:
	// POST /query with admission control, /healthz, /readyz, and the
	// debug tree mounted under /metrics and /debug/. It also owns the
	// graceful-drain lifecycle (Drain, CancelInflight, Shutdown).
	QueryHandler = server.Handler
	// QueryServer is a running network query server (DB.Serve), wrapping
	// a QueryHandler in an http.Server with hardened timeouts.
	QueryServer = server.Server
	// WALStats snapshots the write-ahead log's counters (DB.WALStats).
	WALStats = storage.WALStats
	// RecoveryStats reports what Open replayed from the write-ahead log
	// (DB.Recovery): records, triples, whether a torn tail was repaired,
	// and how long it took.
	RecoveryStats = index.RecoveryStats
	// CompactStats reports what a compaction did: the live paths it
	// kept, its one write-lock pause (the swap) and its wall time.
	CompactStats = index.CompactStats
)

// StopReason values.
const (
	// StopNone: the query ran to completion.
	StopNone = core.StopNone
	// StopDeadline: the context deadline fired mid-query.
	StopDeadline = core.StopDeadline
	// StopCancelled: the context was cancelled mid-query.
	StopCancelled = core.StopCancelled
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("sama: database is closed")

// Term constructors, re-exported.
var (
	NewIRI          = rdf.NewIRI
	NewLiteral      = rdf.NewLiteral
	NewTypedLiteral = rdf.NewTypedLiteral
	NewLangLiteral  = rdf.NewLangLiteral
	NewBlank        = rdf.NewBlank
	NewVar          = rdf.NewVar
	NewGraph        = rdf.NewGraph
	NewQueryGraph   = rdf.NewQueryGraph
	// NewThesaurus returns an empty thesaurus; BenchmarkThesaurus one
	// seeded for the benchmark vocabularies.
	NewThesaurus       = textindex.NewThesaurus
	BenchmarkThesaurus = textindex.BenchmarkThesaurus
	// DefaultParams are the paper's experiment coefficients: a=1,
	// b=0.5, c=2, d=1 (§6.2), with e=1.
	DefaultParams = align.DefaultParams
)

// Option configures Create and Open.
type Option func(*config)

type config struct {
	pathCfg   paths.Config
	poolPages int
	thesaurus *textindex.Thesaurus
	engine    core.Options
}

// WithParams sets the similarity coefficients. Every weight must be
// finite and non-negative, or Create and Open fail; an all-zero Params
// selects DefaultParams.
func WithParams(p Params) Option { return func(c *config) { c.engine.Params = p } }

// WithPathConfig bounds the path enumeration of Create. The index
// records the budget, and every later insert, replay and compaction
// keeps to it: Open ignores the option.
func WithPathConfig(pc PathConfig) Option { return func(c *config) { c.pathCfg = pc } }

// WithPoolPages sets the buffer pool capacity in 8 KiB pages.
func WithPoolPages(n int) Option { return func(c *config) { c.poolPages = n } }

// WithThesaurus enables semantic label expansion during matching.
func WithThesaurus(t *Thesaurus) Option { return func(c *config) { c.thesaurus = t } }

// WithSearchBudget caps the per-query work: candidates kept per cluster
// and combinations visited by the top-k search.
func WithSearchBudget(maxCandidatesPerCluster, maxCombinations int) Option {
	return func(c *config) {
		c.engine.MaxCandidatesPerCluster = maxCandidatesPerCluster
		c.engine.MaxCombinations = maxCombinations
	}
}

// WithWAL does nothing: every database logs its inserts to
// basePath.wal (see Create). It is kept only because the benchmark
// harness still passes it.
func WithWAL(string) Option { return func(*config) {} }

// DB is an opened Sama database: a disk-resident path index plus the
// query engine over it. Every DB owns a metrics registry and a ring of
// recent query traces; DebugHandler exposes both over HTTP.
type DB struct {
	store  *index.Index
	engine *core.Engine
	reg    *obs.Registry
	lastq  *obs.QueryLog
	closed atomic.Bool
}

func buildConfig(opts []Option) (*config, error) {
	c := &config{}
	for _, o := range opts {
		o(c)
	}
	if p := c.engine.Params; !p.Valid() {
		return nil, fmt.Errorf("sama: invalid Params %+v: every weight must be finite and non-negative", p)
	}
	return c, nil
}

// Create indexes the data graph into files at basePath (basePath.pages
// and basePath.meta), overwriting any existing index, and returns the
// opened database. Each Insert is fsynced to the write-ahead log at
// basePath.wal before it is applied, so an acknowledged one survives a
// crash; a checkpoint (once the log reaches 16 MiB, or Checkpoint, or
// Close) discards the log. Until Close, basePath.lock fails a second
// Create or Open of basePath, in this process or another.
func Create(basePath string, g *Graph, opts ...Option) (*DB, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	idx, err := index.Build(basePath, g, index.Options{
		Paths:     c.pathCfg,
		PoolPages: c.poolPages,
		Thesaurus: c.thesaurus,
	})
	if err != nil {
		return nil, err
	}
	return newDB(idx, c), nil
}

// Open loads a previously created index from basePath.meta and
// basePath.pages. The batches basePath.wal holds past the last
// checkpoint are replayed first (DB.Recovery reports them); if the
// replay fails, so does Open.
func Open(basePath string, opts ...Option) (*DB, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	idx, err := index.Open(basePath, index.Options{
		PoolPages: c.poolPages,
		Thesaurus: c.thesaurus,
	})
	if err != nil {
		// Older builds wrote a sharded layout as basePath.shards/ with no
		// basePath.meta; name it instead of reporting a missing file.
		if errors.Is(err, os.ErrNotExist) {
			if _, serr := os.Stat(filepath.Join(basePath+".shards", "manifest.json")); serr == nil {
				return nil, fmt.Errorf("sama: open %s: sharded layouts are no longer read: rebuild the index from its data with `sama index`", basePath)
			}
		}
		return nil, err
	}
	return newDB(idx, c), nil
}

func newDB(st *index.Index, c *config) *DB {
	reg := obs.NewRegistry()
	st.SetMetrics(reg)
	// The pool and the WAL own their counters; expose them as
	// scrape-time funcs so /metrics never double-counts. Flushes,
	// checkpoints and the log's size stay in PoolStats/WALStats.
	pool := func(get func(storage.PoolStats) uint64) func() uint64 {
		return func() uint64 { return get(st.PoolStats()) }
	}
	reg.CounterFunc("sama_pool_hits_total", "Buffer pool page hits.",
		pool(func(s storage.PoolStats) uint64 { return s.Hits }))
	reg.CounterFunc("sama_pool_misses_total", "Buffer pool page misses (physical reads).",
		pool(func(s storage.PoolStats) uint64 { return s.Misses }))
	reg.CounterFunc("sama_pool_evictions_total", "Buffer pool frame evictions.",
		pool(func(s storage.PoolStats) uint64 { return s.Evictions }))
	wal := func(get func(storage.WALStats) uint64) func() uint64 {
		return func() uint64 { return get(st.WALStats()) }
	}
	reg.CounterFunc("sama_wal_appends_total", "WAL records appended.",
		wal(func(s storage.WALStats) uint64 { return s.Appends }))
	reg.CounterFunc("sama_wal_syncs_total", "WAL commit fsyncs.",
		wal(func(s storage.WALStats) uint64 { return s.Syncs }))
	reg.CounterFunc("sama_wal_appended_bytes_total", "Bytes ever framed into the WAL, across checkpoints.",
		wal(func(s storage.WALStats) uint64 { return s.AppendedBytes }))
	engOpts := c.engine
	engOpts.Metrics = reg
	return &DB{
		store:  st,
		engine: core.New(st, engOpts),
		reg:    reg,
		lastq:  obs.NewQueryLog(obs.QueryLogSize),
	}
}

// recoverQuery converts a panic escaping the engine into an error at
// the public API boundary, so one poisoned query cannot take down the
// process hosting the database. desc carries the query context.
func recoverQuery(err *error, desc string) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("sama: panic answering %s: %v\n%s", desc, r, debug.Stack())
	}
}

// describeQuery renders a bounded description of a query for error
// messages, cut on a rune boundary: ToValidUTF8 drops the bytes of a
// rune the cut splits (and any invalid bytes the query had).
func describeQuery(src string) string {
	src = strings.Join(strings.Fields(src), " ")
	if len(src) > 120 {
		src = strings.ToValidUTF8(src[:120], "") + "…"
	}
	return fmt.Sprintf("query %q", src)
}

// Query returns the top-k answers to a query graph, ordered by
// non-decreasing score. k ≤ 0 removes the limit (within the search
// budget).
func (db *DB) Query(q *QueryGraph, k int) ([]Answer, error) {
	answers, _, err := db.QueryContext(context.Background(), q, k)
	return answers, err
}

// QueryContext is Query under a context. On cancellation or deadline
// the search stops at the next checkpoint and returns the best-so-far
// answers — still in non-decreasing score order — with stats.Partial
// set and stats.StopReason saying why; ctx expiring is not an error.
func (db *DB) QueryContext(ctx context.Context, q *QueryGraph, k int) (answers []Answer, stats QueryStats, err error) {
	if db.closed.Load() {
		return nil, QueryStats{}, ErrClosed
	}
	defer recoverQuery(&err, "query graph")
	answers, stats, err = db.engine.QueryWithStatsContext(ctx, q, k)
	db.logTrace(stats.Trace, "graph query")
	return answers, stats, err
}

// logTrace publishes a finished query trace into the recent-queries
// ring, stamping the query description.
func (db *DB) logTrace(tr *Trace, desc string) {
	if tr == nil {
		return
	}
	tr.Query = desc
	db.lastq.Add(tr)
}

// Result is the outcome of a SPARQL query: the ranked answers and the
// projected variable names.
type Result struct {
	// Answers are the ranked answers, best first.
	Answers []Answer
	// Vars are the projected variable names (SELECT list, or all
	// pattern variables for SELECT *).
	Vars []string
	// Partial reports that the query stopped early (context cancelled
	// or deadline exceeded): Answers is the best-so-far prefix, still
	// in non-decreasing score order, rather than the full top-k.
	Partial bool
	// StopReason says why a partial query stopped.
	StopReason StopReason
	// Stats carries the engine-level execution statistics.
	Stats QueryStats
}

// QuerySPARQL parses and answers a SPARQL basic-graph-pattern query.
// The query's LIMIT clause, when present, overrides k. With DISTINCT,
// answers whose projected bindings duplicate a better-ranked answer are
// dropped (the engine over-fetches to refill the budget).
func (db *DB) QuerySPARQL(src string, k int) (*Result, error) {
	return db.QuerySPARQLContext(context.Background(), src, k)
}

// QuerySPARQLContext is QuerySPARQL under a context: the query becomes
// budget-bounded by the context's deadline. When the deadline fires
// mid-search the answers found so far are returned with Result.Partial
// set — the engine's monotone emission order makes that prefix the best
// answers discovered up to the stop.
func (db *DB) QuerySPARQLContext(ctx context.Context, src string, k int) (*Result, error) {
	return db.querySPARQL(ctx, src, k, 0)
}

// querySPARQL is QuerySPARQLContext with an answer cap: maxK > 0 bounds
// the answer count whether k or the query's LIMIT sets it.
func (db *DB) querySPARQL(ctx context.Context, src string, k, maxK int) (res *Result, err error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	defer recoverQuery(&err, describeQuery(src))
	parsed, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	if parsed.Limit > 0 {
		k = parsed.Limit
	}
	if maxK > 0 && k > maxK {
		k = maxK
	}
	vars := parsed.Select
	if vars == nil {
		vars = parsed.Pattern.Vars()
	}
	fetch := k
	if parsed.Distinct && k > 0 {
		// Over-fetch, since duplicates collapse under projection; a LIMIT
		// near the int range saturates instead of wrapping.
		fetch = math.MaxInt
		if k <= math.MaxInt/4 {
			fetch = k * 4
		}
	}
	answers, stats, err := db.engine.QueryWithStatsContext(ctx, parsed.Pattern, fetch)
	db.logTrace(stats.Trace, describeQuery(src))
	if err != nil {
		return nil, err
	}
	if parsed.Distinct {
		answers = dedupeByProjection(answers, vars, k)
	}
	return &Result{
		Answers:    answers,
		Vars:       vars,
		Partial:    stats.Partial,
		StopReason: stats.StopReason,
		Stats:      stats,
	}, nil
}

// dedupeByProjection keeps the best-ranked answer per distinct
// projected binding, truncating to k (k ≤ 0: no limit).
func dedupeByProjection(answers []Answer, vars []string, k int) []Answer {
	seen := make(map[string]bool, len(answers))
	out := answers[:0:0]
	for _, a := range answers {
		var key []byte
		for _, v := range vars {
			key = append(key, v...)
			key = append(key, '=')
			if t, ok := a.Subst[v]; ok {
				key = append(key, t.String()...)
			}
			key = append(key, ';')
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out = append(out, a)
		if k > 0 && len(out) >= k {
			break
		}
	}
	return out
}

// Insert adds statements to the database incrementally: the data graph
// grows and only the affected index paths are re-enumerated (the §7
// index-update mechanism). The batch is durable when Insert returns;
// Checkpoint (or Close) folds the log into the index files.
func (db *DB) Insert(triples []Triple) error {
	if db.closed.Load() {
		return ErrClosed
	}
	// The insert bumps the index epoch. A memoised cluster is
	// re-confirmed by its next lookup from what the insert changed, and
	// served again if its pre-rank cut is unchanged.
	return db.store.InsertTriples(triples)
}

// Compact rewrites the index files as Create would write them for the
// current data graph, reclaiming the space tombstoned by Insert. Queries
// run on while the files are rebuilt and pause only for the swap, one
// write-lock hold; Insert and Checkpoint wait for the whole compaction.
// The returned stats report the live paths, the pause and the wall time.
func (db *DB) Compact(ctx context.Context) (CompactStats, error) {
	if db.closed.Load() {
		return CompactStats{}, ErrClosed
	}
	return db.store.Compact(ctx)
}

// Checkpoint persists the indexed state (pages, then the metadata with
// the data graph) and truncates the write-ahead log up to it: the one
// way to persist short of Close.
func (db *DB) Checkpoint() error {
	if db.closed.Load() {
		return ErrClosed
	}
	return db.store.Checkpoint()
}

// Recovery reports what Open replayed from the write-ahead log: zero
// after a clean shutdown.
func (db *DB) Recovery() RecoveryStats { return db.store.Recovery() }

// WALStats returns the write-ahead log's counters. ok is always true: it
// is kept only because the benchmark harness still reads it.
func (db *DB) WALStats() (st WALStats, ok bool) { return db.store.WALStats(), true }

// Stats returns the index build statistics (Table 1's measurements).
func (db *DB) Stats() IndexStats { return db.store.Stats() }

// PoolStats returns the buffer pool counters.
func (db *DB) PoolStats() PoolStats { return db.store.PoolStats() }

// Metrics returns the database's metrics registry: query, index and
// buffer pool instrumentation in one place, ready for Prometheus text
// exposition (MetricsRegistry.WritePrometheus) or programmatic reads.
func (db *DB) Metrics() *MetricsRegistry { return db.reg }

// LastQueries returns the traces of the 32 most recent queries, newest
// first. The traces are read-only.
func (db *DB) LastQueries() []*Trace { return db.lastq.Snapshot() }

// Explain answers the SPARQL query like QuerySPARQLContext and
// additionally reduces the execution's trace to its deterministic
// explain plan: per-phase decision counters (candidates retrieved,
// pre-ranked and kept, memo hits vs alignments run, batched pages
// read) without timings. The same plan is rendered by `sama
// query -explain` and returned by the server's ?explain=1.
func (db *DB) Explain(ctx context.Context, src string, k int) (*Result, *Plan, error) {
	res, err := db.QuerySPARQLContext(ctx, src, k)
	if err != nil {
		return nil, nil, err
	}
	return res, res.Stats.Plan(), nil
}

// CacheStats returns a live snapshot of the alignment memo's counters
// under the key "align". The memo is always on, with a 64 MiB budget;
// DropCache empties it.
func (db *DB) CacheStats() map[string]CacheStats { return db.engine.CacheStats() }

// DebugHandler returns the debug HTTP handler tree: /metrics
// (Prometheus text), /debug/vars (the stdlib expvar document),
// /debug/lastqueries (recent traces as JSON) and /debug/pprof/* —
// mountable under any server or httptest.
// DB.Serve mounts it beside /query. Cache and WAL counters not on
// /metrics are read with CacheStats, WALStats and Recovery.
func (db *DB) DebugHandler() http.Handler {
	return obs.DebugMux(db.reg, db.lastq)
}

// Handler returns the network query server handler over this database:
// POST /query (SPARQL text in, JSON ranked answers + per-phase stats
// out, with ?k= and ?timeout= honoured up to the server caps), GET
// /healthz and /readyz, and the debug tree (DebugHandler). Admission control bounds concurrent
// execution at opts.MaxInflight with a bounded FIFO wait queue;
// requests beyond both are shed with 503 + Retry-After. Request
// deadlines thread into the engine's context checkpoints, so a request
// that runs out of budget receives its best-so-far answers with the
// partial flag set. Mount it on any server, or use DB.Serve.
func (db *DB) Handler(opts ServerOptions) *QueryHandler {
	return server.New(server.Backend{
		Query: func(ctx context.Context, src string, k, maxK int) (*server.QueryOutcome, error) {
			res, err := db.querySPARQL(ctx, src, k, maxK)
			if err != nil {
				// A syntax error is the client's: 400, not 500.
				var syntaxErr *sparql.Error
				if errors.As(err, &syntaxErr) {
					err = &server.BadRequestError{Err: err}
				}
				return nil, err
			}
			return &server.QueryOutcome{
				Answers:    res.Answers,
				Vars:       res.Vars,
				Partial:    res.Partial,
				StopReason: string(res.StopReason),
				Stats:      res.Stats,
			}, nil
		},
		Debug:   db.DebugHandler(),
		Metrics: db.reg,
	}, opts)
}

// Serve starts the network query server on addr (port 0 picks a free
// port; QueryServer.Addr reports it). Stop it with
// QueryServer.Shutdown, which drains in-flight queries up to the
// context deadline; closing the DB does not stop the server, so drain
// first, then Close the DB.
func (db *DB) Serve(addr string, opts ServerOptions) (*QueryServer, error) {
	return db.Handler(opts).Serve(addr)
}

// DropCache empties the buffer pool and the alignment memo, returning
// the database to a genuinely cold state.
func (db *DB) DropCache() error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.engine.DropCaches()
	return db.store.DropCache()
}

// Close checkpoints and closes the index files, releasing the base
// path for the next Open. Close is idempotent: the
// second and later calls return nil. Queries issued after Close return
// ErrClosed.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	return db.store.Close()
}

// ParseSPARQL parses a SPARQL query and returns its basic graph pattern
// as a query graph, for use with DB.Query.
func ParseSPARQL(src string) (*QueryGraph, error) {
	parsed, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return parsed.Pattern, nil
}

// LoadNTriples parses an N-Triples stream into a data graph.
func LoadNTriples(r io.Reader) (*Graph, error) {
	return ntriples.ReadGraph(r)
}

// LoadNTriplesFile parses an N-Triples file into a data graph.
func LoadNTriplesFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sama: %w", err)
	}
	defer f.Close()
	return ntriples.ReadGraph(f)
}

// LoadTurtle parses a Turtle stream into a data graph.
func LoadTurtle(r io.Reader) (*Graph, error) {
	return turtle.ReadGraph(r)
}

// LoadGraphFile loads an RDF file, selecting the parser by extension:
// .ttl/.turtle → Turtle, anything else → N-Triples.
func LoadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sama: %w", err)
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".ttl", ".turtle":
		return turtle.ReadGraph(f)
	default:
		return ntriples.ReadGraph(f)
	}
}

// WriteNTriples serialises a data graph in N-Triples format.
func WriteNTriples(w io.Writer, g *Graph) error {
	return ntriples.WriteGraph(w, g)
}

// Score computes score(a, Q) for an explicit pairing of query paths to
// data paths — the raw similarity measure, exposed for callers that
// bring their own path matching. Lower is more relevant.
func Score(pairs []PairedPath, p Params) float64 {
	conv := make([]align.PairedPath, len(pairs))
	for i, pr := range pairs {
		conv[i] = align.PairedPath{Query: pr.Query, Data: pr.Data}
	}
	return align.Score(conv, p)
}

// PairedPath pairs one query path with the data path chosen for it.
type PairedPath struct {
	Query, Data Path
}

// AlignCost computes λ(p, q): the quality of the alignment of data path
// p against query path q (Equation 1), in O(|p|+|q|) time.
func AlignCost(p, q Path, params Params) float64 {
	return align.Lambda(p, q, params)
}
