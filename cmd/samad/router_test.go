package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sama"
	"sama/client"
	"sama/internal/datasets"
	"sama/internal/workload"
)

// startShardFleet builds three whole databases, one per seeded LUBM
// graph (the fleet's data partitions), and starts one samad over each,
// returning the running daemons and their base URLs.
func startShardFleet(t *testing.T) ([]*daemon, []string) {
	t.Helper()
	dir := t.TempDir()
	var (
		ds   []*daemon
		urls []string
	)
	for k := 0; k < 3; k++ {
		base := filepath.Join(dir, fmt.Sprintf("member%d", k))
		db, err := sama.Create(base, datasets.LUBM{}.Generate(200, int64(11+k)))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		logger := log.New(new(bytes.Buffer), "", 0)
		d, err := startDaemon([]string{"-index", base, "-addr", "127.0.0.1:0"}, logger)
		if err != nil {
			t.Fatalf("shard %d daemon: %v", k, err)
		}
		t.Cleanup(func() { d.shutdown() })
		ds = append(ds, d)
		urls = append(urls, d.srv.Addr())
	}
	return ds, urls
}

// TestRouterE2E is the ISSUE's multi-node acceptance test: three
// in-process shard servers behind `samad -route` serve the Fig. 7
// query mix, and killing a shard degrades responses to partial —
// with the loss named in the explain plan — instead of failing them.
func TestRouterE2E(t *testing.T) {
	shards, urls := startShardFleet(t)

	var logs bytes.Buffer
	router, err := startDaemon([]string{
		"-route", strings.Join(urls, ","),
		"-addr", "127.0.0.1:0",
		"-shard-timeout", "10s",
	}, log.New(&logs, "", 0))
	if err != nil {
		t.Fatalf("router daemon: %v", err)
	}
	defer router.shutdown()
	if !strings.Contains(logs.String(), "routing on") || !strings.Contains(logs.String(), "3 shards") {
		t.Errorf("router start log:\n%s", logs.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := client.New("http://" + router.srv.Addr())
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("router Readyz: %v", err)
	}

	// The full Fig. 7 mix through the healthy fleet.
	answered := 0
	for _, q := range workload.LUBMQueries() {
		resp, err := c.Query(ctx, q.SPARQL, client.QueryOptions{K: 10, Timeout: 20 * time.Second})
		if err != nil {
			t.Fatalf("%s through router: %v", q.ID, err)
		}
		if resp.Partial {
			t.Errorf("%s: partial against a healthy fleet (%s)", q.ID, resp.StopReason)
		}
		for i := 1; i < len(resp.Answers); i++ {
			if resp.Answers[i].Score < resp.Answers[i-1].Score {
				t.Errorf("%s: merged answers out of order at %d", q.ID, i)
			}
		}
		answered += len(resp.Answers)
	}
	if answered == 0 {
		t.Fatal("the whole query mix returned no answers")
	}

	// Kill shard 1: queries must degrade, not fail.
	shards[1].srv.Close()
	resp, err := c.Query(ctx, workload.LUBMQueries()[0].SPARQL,
		client.QueryOptions{K: 10, Timeout: 20 * time.Second, Explain: true})
	if err != nil {
		t.Fatalf("query with a dead shard failed outright: %v", err)
	}
	if !resp.Partial {
		t.Fatal("dead shard did not mark the response partial")
	}
	if resp.StopReason != "degraded: 2/3 shards answered" {
		t.Fatalf("StopReason = %q", resp.StopReason)
	}
	if resp.Explain == nil || resp.Explain.Source != "router" {
		t.Fatalf("explain plan = %+v", resp.Explain)
	}
	scatter := resp.Explain.Phases[0]
	if scatter.Name != "scatter" || scatter.Attrs["failed"] != 1 {
		t.Fatalf("scatter node = %+v", scatter)
	}
	var deadNamed, liveNested bool
	for _, child := range scatter.Children {
		if child.Name == "shard[1]" && child.Attrs["failed"] == 1 {
			deadNamed = true
		}
		if child.Name == "shard[0]" && len(child.Children) > 0 {
			liveNested = true
		}
	}
	if !deadNamed {
		t.Errorf("dead shard not named in the plan: %+v", scatter.Children)
	}
	if !liveNested {
		t.Errorf("live shard's engine phases not nested in the plan: %+v", scatter.Children)
	}

	// Kill the rest: only now may the router fail, and it does so with
	// an upstream (502), not internal, error.
	shards[0].srv.Close()
	shards[2].srv.Close()
	_, err = c.Query(ctx, workload.LUBMQueries()[0].SPARQL, client.QueryOptions{K: 5})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != 502 {
		t.Fatalf("all shards dead: err = %v, want HTTP 502", err)
	}
}

// TestRouterServesDebug: a router records request metrics and events,
// so it must serve them — after one routed query, /metrics counts it and
// /debug/events answers.
func TestRouterServesDebug(t *testing.T) {
	_, urls := startShardFleet(t)
	router, err := startDaemon([]string{"-route", strings.Join(urls, ","), "-addr", "127.0.0.1:0"},
		log.New(new(bytes.Buffer), "", 0))
	if err != nil {
		t.Fatalf("router daemon: %v", err)
	}
	defer router.shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	base := "http://" + router.srv.Addr()
	if _, err := client.New(base).Query(ctx, workload.LUBMQueries()[0].SPARQL, client.QueryOptions{K: 5}); err != nil {
		t.Fatalf("routed query: %v", err)
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, `sama_server_requests_total{code="200"} 1`+"\n") {
		t.Errorf("router /metrics: status %d, want 200 with one 200 response counted:\n%.2000s", code, body)
	}
	if code, _ := get("/debug/events"); code != http.StatusOK {
		t.Errorf("router /debug/events: status %d, want 200", code)
	}
}
