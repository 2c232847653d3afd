package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sama"
	"sama/client"
	"sama/internal/align"
	"sama/internal/core"
	"sama/internal/index"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/sparql"
	"sama/internal/textindex"
)

// The traced run sends the same stream through the same client, and
// after every round trip replays the query step by step on a replica: a
// second index built from the same triples with its own engine, pool and
// memo, kept in the served database's state by replaying the same
// queries and inserts. An engine over the served index would share its
// pool and find every page the round trip just loaded; the replica meets
// the pool and memo state the served query met, and the served database's
// counters (pool, memo, WAL) stay exactly what one client causes, which is
// why they repeat for a given seed and block count.
//
// --seconds is split over the timed phases, so a traced run measures for
// as long as an untraced one.

const (
	tracedShare = 0.60 // of --seconds: phase A, the traced stream
	plainShare  = 0.25 // phase B, the same stream untraced
	coldShare   = 0.15 // phase C at most

	probePaths     = 64 // data paths materialised per query path by the layer probes
	coldQueries    = 60 // queries of the cold pass, unless it outlasts coldShare
	minColdQueries = 6
	tailBatches    = 20 // inserts appended to a read-only workload's traced run
)

// span is one timed call into a layer. Spans of one query share Query;
// Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Block  int    `json:"block"`
	Query  int    `json:"query"`
}

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	block int
	query int
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Block: t.block, Query: t.query,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// selfTimes returns, per span, its duration minus the part its children
// cover. Children of one span run one after another, so their durations
// add.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// byName groups the spans' self times by span name.
func (t *tracer) byName() map[string][]float64 {
	out := map[string][]float64{}
	for i, d := range t.selfTimes() {
		out[t.spans[i].Name] = append(out[t.spans[i].Name], float64(d))
	}
	return out
}

// replica is the index and engine the replay runs on.
type replica struct {
	idx     *index.Index
	eng     *core.Engine
	aligner *align.GreedyAligner
}

func newReplica(dir string, base []rdf.Triple) (*replica, error) {
	g, err := rdf.NewGraphFromTriples(base)
	if err != nil {
		return nil, err
	}
	idx, err := index.Build(filepath.Join(dir, "replica"), g, index.Options{Thesaurus: textindex.BenchmarkThesaurus()})
	if err != nil {
		return nil, fmt.Errorf("build replica: %w", err)
	}
	eng := core.New(idx, core.Options{})
	return &replica{idx: idx, eng: eng, aligner: align.NewGreedy(eng.Params())}, nil
}

func (rp *replica) close() error {
	rp.eng.Close()
	return rp.idx.Close()
}

// counts are the work counters of the traced stream, summed over its
// queries from the explain plans and the wire statistics.
type counts struct {
	queries, queryPaths                                    float64
	retrieved, preranked, memoHits, aligned, kept          float64
	sigRejected, boundPruned                               float64
	visited, joined, psiHits, psiScored, frontierPeak      float64
	restarts, pageReads                                    float64
	elapsedNS, replayNS                                    float64
	engineNS, overheadNS                                   []float64 // per traced round trip
	assembleNS                                             []float64
	summaryIDs, readPaths, decoded, pairs, docs, contained float64
}

func (c *counts) addPlan(p *client.ExplainPlan) {
	if p == nil {
		return
	}
	c.restarts += float64(p.Restarts)
	for _, ph := range p.Phases {
		switch ph.Name {
		case "cluster":
			c.retrieved += float64(ph.Attrs["retrieved"])
			c.kept += float64(ph.Attrs["kept"])
			for _, ch := range ph.Children {
				c.preranked += float64(ch.Attrs["preranked"])
				c.memoHits += float64(ch.Attrs["memo_hits"])
				c.aligned += float64(ch.Attrs["aligned"])
				c.sigRejected += float64(ch.Attrs["sig_rejected"])
				c.boundPruned += float64(ch.Attrs["bound_pruned"])
			}
		case "search":
			c.visited += float64(ph.Attrs["visited"])
			c.joined += float64(ph.Attrs["joined"])
			c.psiHits += float64(ph.Attrs["psi_memo_hits"])
			c.psiScored += float64(ph.Attrs["psi_scored"])
			c.frontierPeak += float64(ph.Attrs["frontier_peak"])
		}
	}
}

// tracedRun is the state of one traced run: the session, the replica
// (nil once closed), the spans and counts of the traced stream, and what
// each later phase observed.
type tracedRun struct {
	s   *session
	rp  *replica
	tr  *tracer
	cnt counts

	traced, plain      []block
	pool0, pool1       sama.PoolStats
	memo0, memo1       sama.CacheStats
	wal0, wal1         sama.WALStats
	wire               []wireStat // one per round trip of the plain segment
	plainCPU           time.Duration
	plainAlloc         uint64
	coldRT, coldMisses []float64
	coldF              float64
	insertMS           []float64 // adjusted
}

// retrieve mirrors the engine's retrieval cascade through the index's
// public lookups: sink postings, containment, the first constant from
// the end, constant edge labels. The engine's own cascade is private;
// probe fails the run when the two stop agreeing on a candidate count.
func retrieve(idx *index.Index, q paths.Path) []index.PathID {
	if sink := q.Sink(); sink.IsConstant() {
		if ids := idx.PathsBySink(sink.Label()); len(ids) > 0 {
			return ids
		}
		if ids := idx.PathsByLabel(sink.Label()); len(ids) > 0 {
			return ids
		}
	} else if v, ok := q.FirstConstantFromEnd(); ok {
		if ids := idx.PathsByLabel(v.Label()); len(ids) > 0 {
			return ids
		}
	}
	for i := len(q.Edges) - 1; i >= 0; i-- {
		if q.Edges[i].IsConstant() {
			if ids := idx.PathsByLabel(q.Edges[i].Label()); len(ids) > 0 {
				return ids
			}
		}
	}
	return nil
}

func constantLabels(q paths.Path) []string {
	var labels []string
	for _, n := range q.Nodes {
		if n.IsConstant() {
			labels = append(labels, n.Label())
		}
	}
	for _, e := range q.Edges {
		if e.IsConstant() {
			labels = append(labels, e.Label())
		}
	}
	return labels
}

// replay answers the query step by step on the replica, one span per
// layer call, and reports whether its answers digest like the served
// ones.
func (t *tracedRun) replay(ctx context.Context, root int, o op, resp *client.QueryResponse) (*core.Preprocessed, []core.Cluster, error) {
	tr, eng := t.tr, t.rp.eng
	rp := tr.begin("replay", root)
	defer tr.end(rp)

	sp := tr.begin("sparql.parse", rp)
	parsed, err := sparql.Parse(o.sparql)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("replay %s: %w", o.key, err)
	}
	sp = tr.begin("paths.decompose", rp)
	pre := eng.Preprocess(parsed.Pattern)
	tr.end(sp)
	engineStart := tr.spans[sp].Start

	sp = tr.begin("core.cluster", rp)
	clusters, err := eng.ClusterContext(ctx, pre)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("replay %s: %w", o.key, err)
	}
	sp = tr.begin("core.search", rp)
	answers := eng.SearchContext(ctx, pre, clusters, answersK)
	tr.end(sp)
	t.cnt.replayNS += float64(tr.spans[sp].End - engineStart)

	vars := parsed.Select
	if vars == nil {
		vars = parsed.Pattern.Vars()
	}
	if got, want := digest(fromEngine(answers, vars)), digest(fromWire(resp.Answers)); got != want {
		return nil, nil, fmt.Errorf("replay %s: digest %s, served %s", o.key, got, want)
	}
	return pre, clusters, nil
}

// probe times the index, text-index and alignment primitives the cluster
// step is made of, on the query's own paths and candidates. clusters is
// what the engine made of the same paths in the replay.
func (t *tracedRun) probe(ctx context.Context, root int, pre *core.Preprocessed, clusters []core.Cluster) error {
	tr, idx := t.tr, t.rp.idx
	pb := tr.begin("probe", root)
	defer tr.end(pb)
	var docs []uint32
	for qi, q := range pre.Paths {
		sp := tr.begin("index.retrieve", pb)
		ids := retrieve(idx, q)
		idx.PathsByAllLabels(constantLabels(q))
		tr.end(sp)
		if len(ids) != clusters[qi].Retrieved {
			return fmt.Errorf("probe: the harness's retrieval cascade found %d candidates for query path %d, the engine's %d: index.retrieve_us times a cascade the engine no longer runs",
				len(ids), qi, clusters[qi].Retrieved)
		}
		if len(ids) == 0 {
			continue
		}
		sp = tr.begin("index.summaries", pb)
		_, err := idx.Summaries(ids)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe summaries: %w", err)
		}
		t.cnt.summaryIDs += float64(len(ids))

		sample := ids
		if len(sample) > probePaths {
			sample = sample[:probePaths]
		}
		sp = tr.begin("index.readpaths", pb)
		ps, err := idx.ReadPathsBatched(ctx, sample)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe read paths: %w", err)
		}
		t.cnt.readPaths += float64(len(ps))

		bufs := make([][]byte, len(ps))
		for i, p := range ps {
			bufs[i] = index.EncodePath(p)
		}
		sp = tr.begin("index.decode", pb)
		for _, buf := range bufs {
			if _, err := index.DecodePath(buf); err != nil {
				return fmt.Errorf("probe decode: %w", err)
			}
		}
		tr.end(sp)
		t.cnt.decoded += float64(len(bufs))

		sp = tr.begin("align.greedy", pb)
		for _, p := range ps {
			t.rp.aligner.Align(p, q)
		}
		tr.end(sp)
		t.cnt.pairs += float64(len(ps))

		var post textindex.Postings
		for _, id := range ids {
			post.Add(uint32(id))
		}
		sp = tr.begin("textindex.appendto", pb)
		docs = post.AppendTo(docs[:0])
		tr.end(sp)
		t.cnt.docs += float64(len(docs))
		sp = tr.begin("textindex.contains", pb)
		for _, id := range sample {
			post.Contains(uint32(id))
		}
		tr.end(sp)
		t.cnt.contained += float64(len(sample))
	}
	return nil
}

// tracedQuery is the traced run's per-op step: the round trip (asking
// for the explain plan, which carries the engine's work counters), then
// the replay and the probes on the replica.
func (t *tracedRun) tracedQuery(ctx context.Context, b int, o op) (*client.QueryResponse, time.Duration) {
	tr, r := t.tr, t.s.r
	tr.block, tr.query = b, tr.query+1
	root := tr.begin("query", -1)
	defer tr.end(root)
	sp := tr.begin("server.roundtrip", root)
	resp, rt := r.query(ctx, o, client.QueryOptions{Explain: true})
	tr.end(sp)
	if resp == nil {
		return nil, rt
	}
	t.cnt.queries++
	t.cnt.queryPaths += float64(resp.Stats.QueryPaths)
	t.cnt.pageReads += float64(resp.Stats.IO.PageReads)
	t.cnt.elapsedNS += float64(resp.Stats.ElapsedNS)
	t.cnt.engineNS = append(t.cnt.engineNS, float64(resp.Stats.ElapsedNS))
	t.cnt.overheadNS = append(t.cnt.overheadNS, float64(rt)-float64(resp.Stats.ElapsedNS))
	for _, ph := range resp.Stats.Phases {
		if ph.Name == "assemble" {
			t.cnt.assembleNS = append(t.cnt.assembleNS, float64(ph.DurationNS))
		}
	}
	t.cnt.addPlan(resp.Explain)
	pre, clusters, err := t.replay(ctx, root, o, resp)
	if err == nil {
		err = t.probe(ctx, root, pre, clusters)
	}
	if err != nil {
		r.fail(err)
		return nil, rt
	}
	return resp, rt
}

// warmReplica brings the replica to the served database's state after
// set-up: the same warm blocks, answered whole, and their inserts.
func (t *tracedRun) warmReplica(ctx context.Context) error {
	cfg := t.s.cfg
	stream := newOpStream(cfg.workload, t.s.env.data, cfg.seed)
	for b := 0; b < warmBlocks; b++ {
		for _, o := range stream.next() {
			parsed, err := sparql.Parse(o.sparql)
			if err != nil {
				return err
			}
			if _, err := t.rp.eng.QueryContext(ctx, parsed.Pattern, answersK); err != nil {
				return fmt.Errorf("warm replica: %w", err)
			}
		}
		if cfg.workload.writes {
			if err := t.rp.idx.InsertTriples(t.s.env.data.batch(b)); err != nil {
				return fmt.Errorf("warm replica: %w", err)
			}
		}
	}
	return nil
}

// factorOver is what scales a wall-clock time measured somewhere inside
// blocks to the adjusted clock: the steal factor over all of them.
func factorOver(blocks []block) float64 {
	var adj, wall float64
	for _, b := range blocks {
		adj += b.adjusted().Seconds()
		wall += b.wall.Seconds()
	}
	if wall == 0 {
		return 1
	}
	return adj / wall
}

func roundTrips(blocks []block) []float64 {
	var out []float64
	for _, b := range blocks {
		for _, rt := range b.rts {
			out = append(out, float64(rt))
		}
	}
	return out
}

// runTraced executes one traced run and reports the per-layer metrics.
func runTraced(ctx context.Context, cfg *config) (rep *report, err error) {
	s, err := open(ctx, cfg)
	defer s.closeInto(&err)
	if err != nil {
		return nil, err
	}
	rp, err := newReplica(s.env.dir, s.env.data.base)
	if err != nil {
		return nil, err
	}
	t := &tracedRun{s: s, rp: rp, tr: &tracer{t0: time.Now()}}
	defer t.closeReplica()
	if err := t.warmReplica(ctx); err != nil {
		return nil, err
	}
	for _, phase := range []func(context.Context) error{t.tracedStream, t.plainSegment, t.coldPass, t.inserts} {
		if err := phase(ctx); err != nil {
			return nil, err
		}
		if err := context.Cause(ctx); err != nil {
			return nil, fmt.Errorf("interrupted: %w", err)
		}
	}
	if len(t.traced) == 0 || len(t.plain) == 0 || len(t.coldRT) == 0 || len(t.insertMS) == 0 {
		return nil, fmt.Errorf("traced run incomplete: %d traced blocks, %d plain blocks, %d cold queries, %d inserts",
			len(t.traced), len(t.plain), len(t.coldRT), len(t.insertMS))
	}
	rep = s.report(t.metrics())
	rep.Info = map[string]float64{
		"setup_s":        s.setup.adjusted().Seconds(),
		"traced_blocks":  float64(len(t.traced)),
		"traced_queries": t.cnt.queries,
		"plain_blocks":   float64(len(t.plain)),
		"plain_queries":  float64(len(t.wire)),
		"cold_queries":   float64(len(t.coldRT)),
		"inserts":        float64(len(t.insertMS)),
		"spans":          float64(len(t.tr.spans)),
		"connections":    float64(s.env.wire.dials.Load()),
	}
	// Where bench.trace_overhead_ratio sits: the engine's own elapsed time
	// and the rest of the round trip, traced (explain on, after a replay)
	// against plain, raw wall clock.
	var plainEngine, plainOverhead []float64
	for _, w := range t.wire {
		plainEngine = append(plainEngine, w.engineNS)
		plainOverhead = append(plainOverhead, w.overheadNS)
	}
	rep.Info["traced_engine_p50_ms"] = median(t.cnt.engineNS) / 1e6
	rep.Info["plain_engine_p50_ms"] = median(plainEngine) / 1e6
	rep.Info["traced_overhead_p50_ms"] = median(t.cnt.overheadNS) / 1e6
	rep.Info["plain_overhead_p50_ms"] = median(plainOverhead) / 1e6
	return rep, t.save()
}

func (t *tracedRun) closeReplica() error {
	if t.rp == nil {
		return nil
	}
	err := t.rp.close()
	t.rp = nil
	return err
}

// tracedStream is phase A: the stream with replay and probes, between
// two snapshots of the served database's counters.
func (t *tracedRun) tracedStream(ctx context.Context) error {
	db, cfg := t.s.env.db, t.s.cfg
	t.pool0, t.memo0 = db.PoolStats(), db.CacheStats()["align"]
	t.wal0, _ = db.WALStats()
	var mirrorErr error
	t.traced = t.s.r.runFor(ctx, t.share(tracedShare), t.tracedQuery,
		func([]block) {
			if cfg.workload.writes && mirrorErr == nil {
				mirrorErr = t.rp.idx.InsertTriples(t.s.env.data.batch(t.s.r.stream.n - 1))
			}
		})
	t.pool1, t.memo1 = db.PoolStats(), db.CacheStats()["align"]
	if mirrorErr != nil {
		return fmt.Errorf("mirror insert on replica: %w", mirrorErr)
	}
	return nil
}

// wireStat is what one untraced round trip says about the server.
type wireStat struct{ engineNS, overheadNS, queueNS, bytes float64 }

// plainSegment is phase B: the same stream continued without replay,
// probes or explain — what the untraced run does — for the server's own
// overhead and for the cost the tracing adds. The replica stays open and
// idle until the end of it: its heap sets how often the collector runs,
// and closing it first would make the untraced round trips pay for more
// collections than the traced ones did.
func (t *tracedRun) plainSegment(ctx context.Context) error {
	r := t.s.r
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	t.plain = r.runFor(ctx, t.share(plainShare),
		func(ctx context.Context, _ int, o op) (*client.QueryResponse, time.Duration) {
			resp, rt := r.query(ctx, o, client.QueryOptions{})
			if resp != nil {
				t.wire = append(t.wire, wireStat{
					engineNS:   float64(resp.Stats.ElapsedNS),
					overheadNS: float64(rt) - float64(resp.Stats.ElapsedNS),
					queueNS:    float64(resp.Stats.QueueNS),
					bytes:      float64(t.s.env.wire.lastBytes),
				})
			}
			return resp, rt
		}, nil)
	t.plainCPU = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	t.plainAlloc = m1.TotalAlloc - m0.TotalAlloc
	if err := t.closeReplica(); err != nil {
		return fmt.Errorf("close replica: %w", err)
	}
	return nil
}

// share is the part of --seconds a phase gets.
func (t *tracedRun) share(of float64) time.Duration {
	return time.Duration(t.s.cfg.seconds * of * float64(time.Second))
}

// coldPass is phase C. DropCache empties the pool and the memo; the OS
// page cache stays warm, so this prices pool misses and decoding, not the
// device. It ends after coldQueries queries or, on a workload whose
// queries are slow, once it has used its share of --seconds.
func (t *tracedRun) coldPass(ctx context.Context) error {
	r := t.s.r
	sw := t.s.cfg.clock.start()
	done := func() bool {
		return len(t.coldRT) == coldQueries || (len(t.coldRT) >= minColdQueries && time.Since(sw.t0) > t.share(coldShare))
	}
	for !done() && ctx.Err() == nil {
		for _, o := range r.stream.next() {
			if o.probe != nil || done() {
				continue // the probed batch was never inserted: no block ran
			}
			if err := t.s.env.db.DropCache(); err != nil {
				return fmt.Errorf("cold pass: %w", err)
			}
			if resp, rt := r.query(ctx, o, client.QueryOptions{}); resp != nil {
				t.coldRT = append(t.coldRT, float64(rt))
				t.coldMisses = append(t.coldMisses, float64(resp.Stats.IO.CacheMisses))
			}
		}
	}
	t.coldF = sw.stop().f
	return nil
}

// inserts is phase D. A workload that writes has its inserts in the
// blocks of A and B; a read-only one appends a short tail, so that the
// write path's layer metrics exist on every workload.
func (t *tracedRun) inserts(ctx context.Context) error {
	if t.s.cfg.workload.writes {
		for _, part := range [][]block{t.traced, t.plain} {
			for _, b := range part {
				t.insertMS = append(t.insertMS, ms(b.insert)*b.f)
			}
		}
	} else {
		sw := t.s.cfg.clock.start()
		for i := 0; i < tailBatches && ctx.Err() == nil; i++ {
			if d, ok := t.s.r.insert(i); ok {
				t.insertMS = append(t.insertMS, ms(d))
			}
		}
		f := sw.stop().f
		for i := range t.insertMS {
			t.insertMS[i] *= f
		}
	}
	t.wal1, _ = t.s.env.db.WALStats()
	return nil
}

// metrics reduces what the phases observed to the per-layer metrics.
func (t *tracedRun) metrics() map[string]metric {
	s, c := t.s, &t.cnt
	fA, fB := factorOver(t.traced), factorOver(t.plain)
	self := t.tr.byName()
	sum := func(name string) float64 {
		var total float64
		for _, d := range self[name] {
			total += d
		}
		return total * fA
	}
	med := func(name string) float64 { return median(self[name]) * fA }
	var overhead, queue, bytes []float64
	for _, w := range t.wire {
		overhead = append(overhead, w.overheadNS*fB)
		queue = append(queue, w.queueNS*fB)
		bytes = append(bytes, w.bytes)
	}
	plainQueries := float64(len(t.wire))
	var insertTotalMS float64
	for _, d := range t.insertMS {
		insertTotalMS += d
	}
	batches := float64(len(t.insertMS))
	inserted := batches * (insertBatch + 1)
	buildAdj := s.env.buildT.adjusted().Seconds()
	poolHits, poolMisses := float64(t.pool1.Hits-t.pool0.Hits), float64(t.pool1.Misses-t.pool0.Misses)
	memoHits, memoMisses := float64(t.memo1.Hits-t.memo0.Hits), float64(t.memo1.Misses-t.memo0.Misses)
	var allWall, allAdj float64
	for _, part := range [][]block{t.traced, t.plain} {
		for _, b := range part {
			allWall += b.wall.Seconds()
			allAdj += b.adjusted().Seconds()
		}
	}

	plain := reduce(t.plain)

	const us, msec = 1e3, 1e6 // ns per unit
	return map[string]metric{
		"query_p50_ms":   {plain.p50, "ms"},
		"throughput_qps": {plain.qps, "1/s"},

		"server.overhead_ms": {median(overhead) / msec, "ms"},
		"server.queue_ms":    {mean(queue) / msec, "ms"},
		"server.resp_bytes":  {mean(bytes), "B"},
		"server.shed_count":  {float64(s.r.shed), "count"},

		"sparql.parse_us":    {med("sparql.parse") / us, "us"},
		"paths.decompose_us": {med("paths.decompose") / us, "us"},
		"paths.query_paths":  {ratio(c.queryPaths, c.queries), "count"},

		"core.cluster_ms":          {med("core.cluster") / msec, "ms"},
		"core.retrieved_per_query": {ratio(c.retrieved, c.queries), "count"},
		"core.aligned_per_query":   {ratio(c.aligned, c.queries), "count"},
		"core.sig_rejected_ratio":  {ratio(c.sigRejected, c.retrieved), "ratio"},
		"core.bound_pruned_ratio":  {ratio(c.boundPruned, c.aligned+c.boundPruned), "ratio"},
		"core.kept_per_aligned":    {ratio(c.kept, c.aligned+c.memoHits), "ratio"},

		"core.search_ms":          {med("core.search") / msec, "ms"},
		"core.search_visited":     {ratio(c.visited, c.queries), "count"},
		"core.search_joined":      {ratio(c.joined, c.queries), "count"},
		"core.psi_memo_hit_ratio": {ratio(c.psiHits, c.psiHits+c.psiScored), "ratio"},
		"core.frontier_peak":      {ratio(c.frontierPeak, c.queries), "count"},

		"core.assemble_us": {median(c.assembleNS) * fA / us, "us"},
		"core.restarts":    {c.restarts, "count"},

		"cache.align_memo_hit_ratio":     {ratio(memoHits, memoHits+memoMisses), "ratio"},
		"cache.align_memo_invalidations": {float64(t.memo1.Invalidations - t.memo0.Invalidations), "count"},

		"index.retrieve_us":           {med("index.retrieve") / us, "us"},
		"index.summaries_us_per_1k":   {ratio(sum("index.summaries"), c.summaryIDs) * 1000 / us, "us"},
		"index.readpaths_us_per_path": {ratio(sum("index.readpaths"), c.readPaths) / us, "us"},
		"index.decode_ns_per_path":    {ratio(sum("index.decode"), c.decoded), "ns"},

		"textindex.postings_decode_ns_per_doc": {ratio(sum("textindex.appendto"), c.docs), "ns"},
		"textindex.postings_contains_ns":       {ratio(sum("textindex.contains"), c.contained), "ns"},

		"storage.pool_hit_ratio":           {ratio(poolHits, poolHits+poolMisses), "ratio"},
		"storage.pool_misses_per_query":    {ratio(poolMisses, c.queries), "count"},
		"storage.pool_evictions_per_query": {ratio(float64(t.pool1.Evictions-t.pool0.Evictions), c.queries), "count"},
		"storage.page_reads_per_query":     {ratio(c.pageReads, c.queries), "count"},

		"storage.cold_query_ms":             {median(t.coldRT) * t.coldF / msec, "ms"},
		"storage.cold_page_reads_per_query": {mean(t.coldMisses), "count"},

		"align.greedy_ns_per_pair": {ratio(sum("align.greedy"), c.pairs), "ns"},
		"align.pairs_per_query":    {ratio(c.pairs, c.queries), "count"},

		"index.insert_ms_per_batch":    {median(t.insertMS), "ms"},
		"index.insert_p90_ms":          {percentile(t.insertMS, 0.9), "ms"},
		"index.ingest_tps":             {ratio(inserted, insertTotalMS/1000), "1/s"},
		"storage.wal_bytes_per_triple": {ratio(float64(t.wal1.AppendedBytes-t.wal0.AppendedBytes), inserted), "B"},
		"storage.wal_syncs_per_batch":  {ratio(float64(t.wal1.Syncs-t.wal0.Syncs), batches), "count"},

		"index.build_triples_per_s":  {ratio(float64(len(s.env.data.base)), buildAdj), "1/s"},
		"index.build_share_of_setup": {ratio(buildAdj, s.setup.adjusted().Seconds()), "ratio"},

		"core.unexplained_ratio":     {1 - ratio(c.replayNS, c.elapsedNS), "ratio"},
		"bench.trace_overhead_ratio": {ratio(median(roundTrips(t.traced))*fA, median(roundTrips(t.plain))*fB), "ratio"},
		"bench.cpu_ms_per_query":     {ratio(ms(t.plainCPU), plainQueries), "ms"},
		"bench.alloc_kb_per_query":   {ratio(float64(t.plainAlloc)/1024, plainQueries), "KiB"},
		"bench.steal_share":          {1 - ratio(allAdj, allWall), "ratio"},
	}
}

// traceFile is bench/out/trace_<workload>.json. Span times are raw
// nanoseconds since the trace began; block_steal_factor holds f of each
// block of the traced stream for whoever wants them adjusted.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	BlockF   []float64 `json:"block_steal_factor"`
	Spans    []span    `json:"spans"`
}

func (t *tracedRun) save() error {
	cfg := t.s.cfg
	tf := traceFile{Workload: cfg.workload.name, Seed: cfg.seed, Spans: t.tr.spans}
	for _, b := range t.traced {
		tf.BlockF = append(tf.BlockF, b.f)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.benchDir, "out", "trace_"+cfg.workload.name+".json"), data, 0o644)
}
