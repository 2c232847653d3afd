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
// partial flag set; a client that disconnects cancels its query. Every
// query's latency is in /metrics (sama_query_seconds) and its trace in
// /debug/lastqueries; every shed is counted by reason
// (sama_server_shed_total).
// The alignment memo is always on, with a 64 MiB budget, and
// re-confirms an entry an index write made stale. After a crash,
// opening the index replays its write-ahead log (<index>.wal) before
// samad serves, and the replay is logged; samad holds the index's lock
// until it exits, so no other process opens the index meanwhile.
// -data is only read to build an absent index.
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
	"syscall"
	"time"

	"sama"
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
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *index == "" {
		fs.Usage()
		return nil, errors.New("-index is required")
	}

	opts := []sama.Option{sama.WithThesaurus(sama.BenchmarkThesaurus())}
	if *poolPages > 0 {
		opts = append(opts, sama.WithPoolPages(*poolPages))
	}
	db, err := openOrBuild(*index, *data, opts, logger)
	if err != nil {
		return nil, err
	}
	if rs := db.Recovery(); rs.Records > 0 || rs.TornTailRepaired {
		logger.Printf("wal recovery: replayed %d records (%d triples) in %v, torn tail repaired: %v",
			rs.Records, rs.Triples, rs.Replay.Round(time.Microsecond), rs.TornTailRepaired)
	}

	srv, err := db.Serve(*addr, sama.ServerOptions{
		MaxInflight:    *maxInflight,
		MaxQueue:       queueOption(*maxQueue),
		QueueTimeout:   *queueTimeout,
		MaxTimeout:     *maxTimeout,
		DefaultTimeout: *defaultTimeout,
		DefaultK:       *defaultK,
		MaxK:           *maxK,
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	inflight, queue := srv.Handler().Limits()
	logger.Printf("serving on http://%s/ (index %s, max-inflight %d, max-queue %d)",
		srv.Addr(), *index, inflight, queue)
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

// openOrBuild opens the index, building it from -data first when the
// index files are missing.
func openOrBuild(index, data string, opts []sama.Option, logger *log.Logger) (*sama.DB, error) {
	if _, err := os.Stat(index + ".meta"); err != nil && data != "" {
		logger.Printf("index %s not found: building from %s", index, data)
		db, err := sama.CreateFromFile(index, data, opts...)
		if err != nil {
			return nil, err
		}
		st := db.Stats()
		logger.Printf("indexed %d triples into %d paths in %v",
			st.Triples, st.Paths, st.BuildTime.Round(time.Millisecond))
		return db, nil
	}
	db, err := sama.Open(index, opts...)
	if err != nil {
		return nil, fmt.Errorf("opening index %s: %w (pass -data to build it)", index, err)
	}
	return db, nil
}

// shutdown drains the server within the drain deadline, then closes the
// database.
func (d *daemon) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if cerr := d.db.Close(); err == nil {
		err = cerr
	}
	return err
}
