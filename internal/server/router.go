package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"sama/client"
	"sama/internal/obs"
)

// Router is the multi-node scatter-gather front end (`samad -route`):
// one query fans out to N shard servers — each a samad serving a whole
// database over its partition of the data, or a full replica — and the
// ranked per-shard answers merge into one response.
//
// Availability beats completeness here: a slow or dead shard degrades
// the answer set instead of failing the query. Its answers are simply
// absent, the response is marked Partial with StopReason
// "degraded: k/n shards answered", and the explain plan names the
// failed shards. Only when every shard fails does the query error
// (502 through the handler).
//
// The router merges *answers* after each shard's own combination
// search (DESIGN.md §12), so an answer can only combine data paths
// co-located on one shard. The merge order is deterministic: (score,
// shard index, per-shard rank).
type Router struct {
	urls    []string
	shards  []*client.Client
	timeout time.Duration
}

// RouterOptions configure the fan-out.
type RouterOptions struct {
	// ShardTimeout bounds each shard request (default 10s); the
	// client's overall request deadline still applies on top.
	ShardTimeout time.Duration
	// HTTP, when set, is the http.Client shared by every shard client
	// (tests inject transports); nil uses http.DefaultClient.
	HTTP *http.Client
}

// NewRouter builds a router over the shard base URLs, in order — the
// shard index in merged output and explain plans is the position here.
func NewRouter(urls []string, opts RouterOptions) *Router {
	if opts.ShardTimeout <= 0 {
		opts.ShardTimeout = 10 * time.Second
	}
	rt := &Router{urls: urls, timeout: opts.ShardTimeout}
	for _, u := range urls {
		c := client.New(u)
		c.HTTP = opts.HTTP
		rt.shards = append(rt.shards, c)
	}
	return rt
}

// GatewayError marks a backend failure as an upstream outage (every
// shard unreachable), mapping to HTTP 502 instead of 500.
type GatewayError struct{ Err error }

func (e *GatewayError) Error() string { return e.Err.Error() }
func (e *GatewayError) Unwrap() error { return e.Err }

// shardReply is one shard's contribution to a merged query.
type shardReply struct {
	resp    *client.QueryResponse
	err     error
	elapsed time.Duration
}

// Query fans the SPARQL text out to every shard and merges the ranked
// answers. It satisfies Backend.QueryWire.
func (rt *Router) Query(ctx context.Context, src string, k int, explain bool) (*client.QueryResponse, error) {
	start := time.Now()
	replies := make([]shardReply, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh *client.Client) {
			defer wg.Done()
			t0 := time.Now()
			sctx, cancel := context.WithTimeout(ctx, rt.timeout)
			defer cancel()
			// Each shard returns its local top-k; the merged top-k is
			// drawn from the union, so k per shard is never too few.
			resp, err := sh.Query(sctx, src, client.QueryOptions{
				K: k, Timeout: rt.timeout, Explain: explain,
			})
			replies[i] = shardReply{resp: resp, err: err, elapsed: time.Since(t0)}
		}(i, sh)
	}
	wg.Wait()
	return rt.merge(replies, k, explain, time.Since(start))
}

// merge folds the per-shard replies into one wire response.
func (rt *Router) merge(replies []shardReply, k int, explain bool, elapsed time.Duration) (*client.QueryResponse, error) {
	type ranked struct {
		a     client.Answer
		shard int
		rank  int
	}
	var (
		all      []ranked
		answered int
		firstErr error
	)
	out := &client.QueryResponse{}
	for i, r := range replies {
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d (%s): %w", i, rt.urls[i], r.err)
			}
			continue
		}
		answered++
		if out.Vars == nil {
			out.Vars = r.resp.Vars
		}
		if r.resp.Partial {
			out.Partial = true
			out.StopReason = r.resp.StopReason
		}
		out.Stats.Extracted += r.resp.Stats.Extracted
		if r.resp.Stats.QueryPaths > out.Stats.QueryPaths {
			out.Stats.QueryPaths = r.resp.Stats.QueryPaths
		}
		out.Stats.IO.PageReads += r.resp.Stats.IO.PageReads
		out.Stats.IO.CacheHits += r.resp.Stats.IO.CacheHits
		out.Stats.IO.CacheMisses += r.resp.Stats.IO.CacheMisses
		out.Stats.IO.Retries += r.resp.Stats.IO.Retries
		out.Stats.IO.BatchedPages += r.resp.Stats.IO.BatchedPages
		for rank, a := range r.resp.Answers {
			all = append(all, ranked{a: a, shard: i, rank: rank})
		}
	}
	if answered == 0 {
		return nil, &GatewayError{Err: fmt.Errorf("all %d shards failed: %w", len(replies), firstErr)}
	}
	// Deterministic total order: score, then shard index, then the
	// shard's own rank. Each shard list is already score-sorted, so this
	// is a k-way merge rendered as one sort for clarity.
	sort.SliceStable(all, func(x, y int) bool {
		if all[x].a.Score != all[y].a.Score {
			return all[x].a.Score < all[y].a.Score
		}
		if all[x].shard != all[y].shard {
			return all[x].shard < all[y].shard
		}
		return all[x].rank < all[y].rank
	})
	candidates := len(all)
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	out.Answers = make([]client.Answer, len(all))
	for i, r := range all {
		out.Answers[i] = r.a
	}
	if degraded := answered < len(replies); degraded {
		out.Partial = true
		out.StopReason = fmt.Sprintf("degraded: %d/%d shards answered", answered, len(replies))
	}
	out.Stats.ElapsedNS = elapsed.Nanoseconds()
	if explain {
		out.Explain = rt.explainPlan(replies, out, answered, candidates)
	}
	return out, nil
}

// explainPlan assembles the merged plan: a scatter phase with one
// shard[i] child per fan-out target (carrying the shard's own plan
// phases when it answered, or failed=1 when it did not), then a merge
// phase with the candidate and output counts.
func (rt *Router) explainPlan(replies []shardReply, out *client.QueryResponse, answered, candidates int) *client.ExplainPlan {
	scatter := &client.ExplainNode{
		Name: "scatter",
		Attrs: map[string]int64{
			"shards":   int64(len(replies)),
			"answered": int64(answered),
			"failed":   int64(len(replies) - answered),
		},
	}
	for i, r := range replies {
		child := &client.ExplainNode{Name: fmt.Sprintf("shard[%d]", i), Attrs: map[string]int64{}}
		if r.err != nil {
			child.Attrs["failed"] = 1
		} else {
			child.Attrs["answers"] = int64(len(r.resp.Answers))
			child.Attrs["extracted"] = int64(r.resp.Stats.Extracted)
			if r.resp.Partial {
				child.Attrs["partial"] = 1
			}
			if r.resp.Explain != nil {
				child.Children = r.resp.Explain.Phases
			}
		}
		scatter.Children = append(scatter.Children, child)
	}
	merge := &client.ExplainNode{
		Name: "merge",
		Attrs: map[string]int64{
			"candidates": int64(candidates),
			"returned":   int64(len(out.Answers)),
		},
	}
	return &client.ExplainPlan{
		Version:    obs.PlanVersion,
		Source:     "router",
		Answers:    len(out.Answers),
		Partial:    out.Partial,
		StopReason: out.StopReason,
		Phases:     []*client.ExplainNode{scatter, merge},
	}
}
