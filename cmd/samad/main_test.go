package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sama"
	"sama/client"
)

const testData = `
<alice>  <knows>   <bob> .
<alice>  <worksAt> <acme> .
<bob>    <worksAt> <acme> .
<bob>    <knows>   <carol> .
<carol>  <worksAt> <globex> .
<acme>   <locatedIn> "Rome" .
<globex> <locatedIn> "Milan" .
`

const testQuery = `SELECT ?who ?org WHERE {
	?who <worksAt> ?org .
	?org <locatedIn> "Rome" .
}`

// writeDataset writes the test graph and returns (dataFile, indexBase).
func writeDataset(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	data := filepath.Join(dir, "graph.nt")
	if err := os.WriteFile(data, []byte(testData), 0o644); err != nil {
		t.Fatal(err)
	}
	return data, filepath.Join(dir, "index")
}

// TestServeSmoke is the `make serve-smoke` gate: start samad on a random
// port, build the index from an example dataset, run one query through
// the Go client, and check /readyz and /metrics.
func TestServeSmoke(t *testing.T) {
	data, index := writeDataset(t)
	var logs bytes.Buffer
	logger := log.New(&logs, "samad: ", 0)
	d, err := startDaemon([]string{
		"-index", index, "-data", data,
		"-addr", "127.0.0.1:0",
		"-max-inflight", "4",
	}, logger)
	if err != nil {
		t.Fatalf("startDaemon: %v\nlogs:\n%s", err, logs.String())
	}
	defer d.shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := client.New("http://" + d.srv.Addr())
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("Readyz: %v", err)
	}

	resp, err := c.Query(ctx, testQuery, client.QueryOptions{K: 5, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(resp.Answers) == 0 {
		t.Fatal("query returned no answers")
	}
	if got := resp.Answers[0].Bindings["who"]; !strings.Contains(got, "alice") && !strings.Contains(got, "bob") {
		t.Errorf("top binding ?who = %q, want alice or bob", got)
	}
	if len(resp.Vars) != 2 {
		t.Errorf("vars = %v", resp.Vars)
	}
	if len(resp.Stats.Phases) == 0 {
		t.Error("response carries no per-phase stats")
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		"sama_server_request_seconds",
		"sama_server_admitted_total 1",
		"sama_server_inflight 0",
		"sama_query_seconds",
		"sama_pool_hits_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The request's trace landed in the lastqueries ring.
	traces := d.db.LastQueries()
	if len(traces) != 1 || !strings.Contains(traces[0].Query, "worksAt") {
		t.Errorf("lastqueries ring = %+v, want the smoke query's trace", traces)
	}

	if err := d.shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := c.Healthz(context.Background()); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestReopenExistingIndex: a second start must open the index built by
// the first, not rebuild it.
func TestReopenExistingIndex(t *testing.T) {
	data, index := writeDataset(t)
	logger := log.New(new(bytes.Buffer), "", 0)
	d, err := startDaemon([]string{"-index", index, "-data", data, "-addr", "127.0.0.1:0"}, logger)
	if err != nil {
		t.Fatalf("first start: %v", err)
	}
	if err := d.shutdown(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	var logs bytes.Buffer
	d2, err := startDaemon([]string{"-index", index, "-addr", "127.0.0.1:0"}, log.New(&logs, "", 0))
	if err != nil {
		t.Fatalf("reopen without -data: %v", err)
	}
	defer d2.shutdown()
	if strings.Contains(logs.String(), "building") {
		t.Errorf("second start rebuilt the index:\n%s", logs.String())
	}
	c := client.New("http://" + d2.srv.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if resp, err := c.Query(ctx, testQuery, client.QueryOptions{}); err != nil || len(resp.Answers) == 0 {
		t.Fatalf("query on reopened index: resp=%+v err=%v", resp, err)
	}
}

// TestStartupRecovery: an index with pending log records (a simulated
// crash: durable insert, files copied without close) is replayed by
// opening it, so samad started on the copy without -data logs the
// replay and serves the crashed insert.
func TestStartupRecovery(t *testing.T) {
	data, index := writeDataset(t)
	logger := log.New(new(bytes.Buffer), "", 0)
	d, err := startDaemon([]string{"-index", index, "-data", data,
		"-addr", "127.0.0.1:0"}, logger)
	if err != nil {
		t.Fatalf("first start: %v", err)
	}
	if err := d.shutdown(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	// The crash: open through the library, insert durably, copy the
	// files without Close.
	db, err := sama.Open(index)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert([]sama.Triple{{
		S: sama.NewIRI("dave"), P: sama.NewIRI("worksAt"), O: sama.NewIRI("acme"),
	}}); err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(t.TempDir(), "idx")
	for _, name := range []string{".meta", ".pages", ".wal/wal.log"} {
		b, err := os.ReadFile(index + name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(crashed+name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(crashed+name, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var logs bytes.Buffer
	d2, err := startDaemon([]string{"-index", crashed, "-addr", "127.0.0.1:0"}, log.New(&logs, "", 0))
	if err != nil {
		t.Fatalf("start on the crashed index: %v", err)
	}
	defer d2.shutdown()
	if !strings.Contains(logs.String(), "wal recovery: replayed 1 records") {
		t.Errorf("logs missing recovery line:\n%s", logs.String())
	}
	c := client.New("http://" + d2.srv.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c.Query(ctx, testQuery, client.QueryOptions{K: 10})
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	var found bool
	for _, a := range resp.Answers {
		if strings.Contains(a.Bindings["who"], "dave") {
			found = true
		}
	}
	if !found {
		t.Errorf("crashed insert missing from answers: %+v", resp.Answers)
	}
}

// TestAlignMemoFlag: the alignment memo is always on; no flag sizes or
// disables it.
func TestAlignMemoFlag(t *testing.T) {
	data, index := writeDataset(t)
	args := []string{"-index", index, "-data", data, "-addr", "127.0.0.1:0"}
	d, err := startDaemon(args, log.New(new(bytes.Buffer), "", 0))
	if err != nil {
		t.Fatalf("startDaemon: %v", err)
	}
	if _, ok := d.db.CacheStats()["align"]; !ok {
		t.Error("default flags: no align memo")
	}
	if err := d.shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestStartupLineReportsEffectiveLimits: the serving line names the
// admission bounds the handler enforces, not the flags' sentinels —
// with default flags GOMAXPROCS slots and a queue twice that.
func TestStartupLineReportsEffectiveLimits(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, fmt.Sprintf("max-inflight %d, max-queue %d)", n, 2*n)},
		{[]string{"-max-inflight", "3", "-max-queue", "0"}, "max-inflight 3, max-queue 0)"},
	} {
		data, index := writeDataset(t)
		var logs bytes.Buffer
		args := append([]string{"-index", index, "-data", data, "-addr", "127.0.0.1:0"}, tc.args...)
		d, err := startDaemon(args, log.New(&logs, "", 0))
		if err != nil {
			t.Fatalf("startDaemon %v: %v", tc.args, err)
		}
		if !strings.Contains(logs.String(), tc.want) {
			t.Errorf("flags %v: serving line lacks %q:\n%s", tc.args, tc.want, logs.String())
		}
		if err := d.shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
}

func TestStartDaemonFlagErrors(t *testing.T) {
	logger := log.New(new(bytes.Buffer), "", 0)
	if _, err := startDaemon(nil, logger); err == nil {
		t.Error("missing -index accepted")
	}
	if _, err := startDaemon([]string{"-index", "/nonexistent/base"}, logger); err == nil {
		t.Error("unreadable index accepted")
	}
	// The ring sizes and the event sampler are not settable any more; an
	// old command line must fail at flag parsing, not be silently ignored.
	for _, gone := range []string{"-query-log", "-event-log", "-event-sample"} {
		if _, err := startDaemon([]string{"-index", "/nonexistent/base", gone, "8"}, logger); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("removed flag %s: err = %v, want a flag-parse error", gone, err)
		}
	}
}

// TestQueueOption: -max-queue -1 keeps the default queue (MaxQueue 0),
// 0 means no queue (MaxQueue negative), a positive bound passes through.
func TestQueueOption(t *testing.T) {
	for flag, want := range map[int]int{-1: 0, 0: -1, 3: 3} {
		if got := queueOption(flag); got != want {
			t.Errorf("queueOption(%d) = %d, want %d", flag, got, want)
		}
	}
}

// TestSignalDrain drives the daemon through realMain: wait for the
// serving line, run one query, send SIGTERM, and expect a clean drain.
func TestSignalDrain(t *testing.T) {
	// Register our own handler first so a SIGTERM racing realMain's
	// signal.Notify cannot kill the test process.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	data, index := writeDataset(t)
	var mu sync.Mutex
	var logs bytes.Buffer
	logger := log.New(lockedWriter{&mu, &logs}, "samad: ", 0)

	done := make(chan int, 1)
	go func() {
		done <- realMain([]string{"-index", index, "-data", data, "-addr", "127.0.0.1:0",
			"-drain-timeout", "5s"}, logger)
	}()

	addrRe := regexp.MustCompile(`serving on http://([^/]+)/`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("server never came up; logs:\n%s", logs.String())
		}
		mu.Lock()
		if m := addrRe.FindStringSubmatch(logs.String()); m != nil {
			addr = m[1]
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := client.New("http://" + addr)
	if _, err := c.Query(ctx, testQuery, client.QueryOptions{}); err != nil {
		t.Fatalf("query before signal: %v", err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			mu.Lock()
			t.Fatalf("realMain = %d; logs:\n%s", code, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("realMain did not exit after SIGTERM")
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("logs missing clean-drain line:\n%s", logs.String())
	}
}

// lockedWriter serialises the daemon's log writes against the test's
// reads.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
