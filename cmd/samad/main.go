// Command samad is the network query daemon: it serves a Sama index
// over HTTP with admission control and graceful drain.
//
//	samad -index /var/data/lubm [-addr :8094]
//	samad -index /tmp/demo -data graph.nt        # build the index first if absent
//
// Endpoints:
//
//	POST /query?k=10&timeout=2s   SPARQL text in, JSON ranked answers out
//	GET  /healthz                 process liveness
//	GET  /readyz                  readiness (503 while draining)
//	GET  /metrics                 Prometheus metrics
//	GET  /debug/                  lastqueries, expvar, pprof
//
// Concurrent execution is bounded by -max-inflight with a bounded FIFO
// wait queue behind it (-max-queue, -queue-timeout); requests beyond
// both receive 503 with a Retry-After hint. Per-request deadlines
// (?timeout=, capped by -max-timeout) thread into the engine, so a
// request that exceeds its budget gets its best-so-far answers with the
// partial flag set. -cache-answers enables the answer cache and
// -cache-align-mb sizes the alignment memo, which is on by default
// (both are invalidated by index writes); -coalesce collapses identical
// in-flight queries into one execution.
// -wal enables the durable write path when the index is built (an
// existing WAL-enabled index reattaches its log automatically); after a
// crash, opening the index replays the log before samad serves, and the
// replay is logged. -data is only read to build an absent index.
// SIGINT/SIGTERM starts a graceful drain: the server
// stops admitting, finishes in-flight queries up to -drain-timeout,
// then cancels the stragglers (their clients still receive partial
// results). A second signal forces an immediate stop.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sama"
	"sama/internal/obs"
	"sama/internal/server"
)

func main() {
	logger := log.New(os.Stderr, "samad: ", log.LstdFlags)
	os.Exit(realMain(os.Args[1:], logger))
}

// realMain runs the daemon until a termination signal arrives. It is
// the testable core of main: the logger carries the bound address and
// every lifecycle event.
func realMain(args []string, logger *log.Logger) int {
	d, err := startDaemon(args, logger)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 2
		}
		logger.Print(err)
		return 1
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	s := <-sig
	logger.Printf("received %v: draining (deadline %v)", s, d.drainTimeout)
	go func() {
		s := <-sig
		logger.Printf("received %v again: hard stop", s)
		d.srv.Close()
	}()
	if err := d.shutdown(); err != nil {
		logger.Printf("shutdown: %v", err)
		return 1
	}
	logger.Print("drained cleanly")
	return 0
}

// daemon is a running samad instance: the database and the query server
// over it.
type daemon struct {
	db           *sama.DB
	srv          *sama.QueryServer
	drainTimeout time.Duration
	logger       *log.Logger
}

// startDaemon parses flags, opens (or builds) the index and starts the
// server.
func startDaemon(args []string, logger *log.Logger) (*daemon, error) {
	fs := flag.NewFlagSet("samad", flag.ContinueOnError)
	fs.SetOutput(logger.Writer())
	index := fs.String("index", "", "index base path (required)")
	data := fs.String("data", "", "RDF file (N-Triples/Turtle): build the index at -index first when it does not exist")
	addr := fs.String("addr", ":8094", "listen address (port 0 picks a free port)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent query execution limit (0 = GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", -1, "wait-queue bound behind the execution slots (-1 = 2×max-inflight, 0 = shed immediately when saturated)")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "how long a request may wait for an execution slot before it is shed")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "cap on the per-request ?timeout parameter")
	defaultTimeout := fs.Duration("default-timeout", 10*time.Second, "query deadline when the request names none")
	defaultK := fs.Int("k", 10, "default answer count when ?k is absent")
	maxK := fs.Int("max-k", 1000, "cap on the per-request ?k parameter")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight queries before cancelling them")
	poolPages := fs.Int("pool-pages", 0, "buffer pool capacity in 8 KiB pages (0 = library default)")
	slow := fs.Duration("slow-query", 0, "log queries slower than this threshold (0 = off)")
	cacheAnswers := fs.Int("cache-answers", 0, "answer cache capacity in entries; any index write invalidates it (0 = off)")
	cacheAlignMB := fs.Int("cache-align-mb", 0, "alignment memo budget in MiB: one cached cluster per query-path shape, reused across queries sharing it (0 = default 64, negative = off)")
	coalesce := fs.Bool("coalesce", false, "collapse identical in-flight /query requests into one execution")
	walDir := fs.String("wal", "", "enable the write-ahead log in this directory when building; an existing index reattaches its own WAL automatically")
	walCheckpoint := fs.Int64("wal-checkpoint", 0, "WAL bytes that trigger an automatic checkpoint (0 = library default, -1 = manual only)")
	route := fs.String("route", "", "comma-separated shard server URLs: run as a scatter-gather router over them instead of serving a local index")
	shardTimeout := fs.Duration("shard-timeout", 10*time.Second, "router mode: per-shard request deadline; a shard missing it degrades the answer set instead of failing the query")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	sopts := sama.ServerOptions{
		MaxInflight:    *maxInflight,
		MaxQueue:       queueOption(*maxQueue),
		QueueTimeout:   *queueTimeout,
		MaxTimeout:     *maxTimeout,
		DefaultTimeout: *defaultTimeout,
		DefaultK:       *defaultK,
		MaxK:           *maxK,
	}
	if *route != "" {
		if *index != "" {
			return nil, errors.New("-route and -index are mutually exclusive: a router holds no local index")
		}
		return startRouter(*route, *addr, *shardTimeout, sopts, *drainTimeout, logger)
	}
	if *index == "" {
		fs.Usage()
		return nil, errors.New("-index is required")
	}

	opts := []sama.Option{sama.WithThesaurus(sama.BenchmarkThesaurus())}
	if *poolPages > 0 {
		opts = append(opts, sama.WithPoolPages(*poolPages))
	}
	if *cacheAnswers > 0 {
		opts = append(opts, sama.WithAnswerCache(*cacheAnswers))
	}
	if *cacheAlignMB != 0 {
		opts = append(opts, sama.WithAlignmentCache(*cacheAlignMB))
	}
	if *slow > 0 {
		// The structured record (trace ID, per-phase context) lands in the
		// event log for /debug/events; the stderr line is the operator's
		// pointer into it.
		opts = append(opts, sama.WithSlowQueryLog(*slow, func(tr *sama.Trace) {
			logger.Printf("slow query %s (trace %s): %v (partial=%v) — details at /debug/events and /debug/lastqueries", tr.Query, tr.ID, tr.Total, tr.Partial)
		}))
	}
	if *walDir != "" {
		opts = append(opts, sama.WithWAL(*walDir))
	}
	if *walCheckpoint != 0 {
		opts = append(opts, sama.WithWALCheckpoint(*walCheckpoint))
	}
	db, err := openOrBuild(*index, *data, opts, logger)
	if err != nil {
		return nil, err
	}
	if rs := db.Recovery(); rs.Records > 0 || rs.TornTailRepaired {
		logger.Printf("wal recovery: replayed %d records (%d triples) in %v, torn tail repaired: %v",
			rs.Records, rs.Triples, rs.Replay.Round(time.Microsecond), rs.TornTailRepaired)
	}

	sopts.Coalesce = *coalesce
	srv, err := db.Serve(*addr, sopts)
	if err != nil {
		db.Close()
		return nil, err
	}
	logger.Printf("serving on http://%s/ (index %s, max-inflight %d, max-queue %d)",
		srv.Addr(), *index, sopts.MaxInflight, *maxQueue)
	return &daemon{db: db, srv: srv, drainTimeout: *drainTimeout, logger: logger}, nil
}

// queueOption maps the -max-queue flag (-1 = default, 0 = no queue) onto
// ServerOptions.MaxQueue (0 = default, negative = no queue).
func queueOption(flag int) int {
	if flag == 0 {
		return -1
	}
	return max(flag, 0)
}

// startRouter runs samad in multi-node router mode: no local index,
// every query fans out to the shard servers and the ranked answers
// merge (DESIGN.md §12). A dead or slow shard degrades responses to
// partial instead of failing them; /metrics and /debug/events report
// the router's own admission and shed counters.
func startRouter(route, addr string, shardTimeout time.Duration, sopts sama.ServerOptions, drainTimeout time.Duration, logger *log.Logger) (*daemon, error) {
	var urls []string
	for _, u := range strings.Split(route, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return nil, errors.New("-route names no shard servers")
	}
	rt := server.NewRouter(urls, server.RouterOptions{ShardTimeout: shardTimeout})
	reg := obs.NewRegistry()
	events := obs.NewEventLog(obs.EventLogSize)
	h := server.New(server.Backend{
		QueryWire: rt.Query,
		Debug:     obs.DebugMux(reg, nil, events),
		Metrics:   reg,
		Events:    events,
	}, sopts)
	srv, err := h.Serve(addr)
	if err != nil {
		return nil, err
	}
	logger.Printf("routing on http://%s/ to %d shards: %s (shard-timeout %v)",
		srv.Addr(), len(urls), strings.Join(urls, ", "), shardTimeout)
	return &daemon{srv: srv, drainTimeout: drainTimeout, logger: logger}, nil
}

// openOrBuild opens the index, building it from -data first when the
// index files are missing.
func openOrBuild(index, data string, opts []sama.Option, logger *log.Logger) (*sama.DB, error) {
	if _, err := os.Stat(index + ".meta"); err != nil && data != "" {
		logger.Printf("index %s not found: building from %s", index, data)
		g, err := sama.LoadGraphFile(data)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		db, err := sama.Create(index, g, opts...)
		if err != nil {
			return nil, err
		}
		st := db.Stats()
		logger.Printf("indexed %d triples into %d paths in %v",
			st.Triples, st.Paths, time.Since(start).Round(time.Millisecond))
		return db, nil
	}
	db, err := sama.Open(index, opts...)
	if err != nil {
		return nil, fmt.Errorf("opening index %s: %w (pass -data to build it)", index, err)
	}
	return db, nil
}

// shutdown drains the server within the drain deadline, then closes the
// database (routers have none).
func (d *daemon) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if d.db != nil {
		if cerr := d.db.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
