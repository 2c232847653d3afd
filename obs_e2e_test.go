package sama_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sama"
)

// obsTestDB builds a small database over the paper's Figure 1 data.
func obsTestDB(t *testing.T, opts ...sama.Option) *sama.DB {
	t.Helper()
	g := sama.NewGraph()
	add := func(s, p, o sama.Term) { g.AddTriple(sama.Triple{S: s, P: p, O: o}) }
	iri, lit := sama.NewIRI, sama.NewLiteral
	add(iri("CarlaBunes"), iri("sponsor"), iri("A0056"))
	add(iri("A0056"), iri("aTo"), iri("B1432"))
	add(iri("B1432"), iri("subject"), lit("Health Care"))
	add(iri("PierceDickes"), iri("sponsor"), iri("B1432"))
	add(iri("PierceDickes"), iri("gender"), lit("Male"))
	add(iri("JeffRyser"), iri("gender"), lit("Male"))
	add(iri("JeffRyser"), iri("sponsor"), iri("B0045"))
	add(iri("B0045"), iri("subject"), lit("Health Care"))
	db, err := sama.Create(t.TempDir()+"/idx", g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

const obsTestQuery = `SELECT ?x ?y WHERE { ?x <sponsor> ?y . ?x <gender> "Male" }`

// TestObservabilityEndToEnd is the acceptance check: a query through
// the public API produces a span tree whose phase durations sum (within
// slack) to the QueryStats total, and the debug server exposes
// parseable Prometheus text with the query-latency histogram, pool
// hit/miss counters and stop-reason counters.
func TestObservabilityEndToEnd(t *testing.T) {
	db := obsTestDB(t)
	res, err := db.QuerySPARQL(obsTestQuery, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}

	tr := res.Stats.Trace
	if tr == nil {
		t.Fatal("no trace on QueryStats")
	}
	var sum time.Duration
	seen := map[string]bool{}
	for _, s := range tr.Phases {
		seen[s.Name] = true
		sum += s.Duration
	}
	for _, want := range []string{"decompose", "cluster", "search", "assemble"} {
		if !seen[want] {
			t.Errorf("missing phase %q", want)
		}
	}
	if sum <= 0 || sum > res.Stats.Elapsed {
		t.Errorf("phase sum %v outside (0, total %v]", sum, res.Stats.Elapsed)
	}
	if slack := res.Stats.Elapsed - sum; slack > res.Stats.Elapsed/5+5*time.Millisecond {
		t.Errorf("phase sum %v far below total %v", sum, res.Stats.Elapsed)
	}

	// One partial query so the stop-reason counter family has a series.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	if _, err := db.QuerySPARQLContext(ctx, obsTestQuery, 5); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	body := httpGet(t, srv.Client(), srv.URL+"/metrics")
	checkPrometheusText(t, body)
	samples := parseSamples(t, body)
	if v := samples[`sama_queries_total`]; v != 2 {
		t.Errorf("sama_queries_total = %v, want 2", v)
	}
	if v := samples[`sama_query_stop_total{reason="deadline exceeded"}`]; v != 1 {
		t.Errorf("stop counter = %v, want 1", v)
	}
	if v := samples[`sama_query_partial_total`]; v != 1 {
		t.Errorf("partial counter = %v, want 1", v)
	}
	if _, ok := samples[`sama_query_seconds_bucket{le="+Inf"}`]; !ok {
		t.Error("query latency histogram missing")
	}
	if samples[`sama_query_seconds_count`] != 2 {
		t.Errorf("latency count = %v, want 2", samples[`sama_query_seconds_count`])
	}
	hits, haveHits := samples[`sama_pool_hits_total`]
	misses, haveMisses := samples[`sama_pool_misses_total`]
	if !haveHits || !haveMisses {
		t.Error("pool hit/miss counters missing")
	}
	want := db.PoolStats()
	if uint64(hits) != want.Hits || uint64(misses) != want.Misses {
		t.Errorf("pool counters: scrape (%v, %v) != PoolStats (%d, %d)",
			hits, misses, want.Hits, want.Misses)
	}
	if samples[`sama_index_paths`] <= 0 {
		t.Error("index path gauge missing or zero")
	}

	// /debug/lastqueries: both traces, newest first, JSON-decodable.
	var traces []*sama.Trace
	if err := json.Unmarshal([]byte(httpGet(t, srv.Client(), srv.URL+"/debug/lastqueries")), &traces); err != nil {
		t.Fatalf("lastqueries: %v", err)
	}
	if len(traces) != 2 {
		t.Fatalf("lastqueries = %d traces, want 2", len(traces))
	}
	if !traces[0].Partial || traces[1].Partial {
		t.Error("lastqueries order wrong (newest first expected)")
	}
	if !strings.Contains(traces[0].Query, "SELECT") {
		t.Errorf("trace query description = %q", traces[0].Query)
	}

	// pprof is mounted.
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil || resp.StatusCode != 200 {
		t.Errorf("pprof index: %v (%v)", err, resp)
	}
	if resp != nil {
		resp.Body.Close()
	}
}

// scrape returns the samples db's /metrics serves.
func scrape(t *testing.T, db *sama.DB) map[string]float64 {
	t.Helper()
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	return parseSamples(t, httpGet(t, srv.Client(), srv.URL+"/metrics"))
}

// TestCacheInvalidationsMetric: an insert that adds a path to a cached
// cluster's candidates makes its memo entry stale, re-confirmation
// refuses it, and sama_cache_invalidations_total counts the refusal.
func TestCacheInvalidationsMetric(t *testing.T) {
	db := obsTestDB(t)
	if _, err := db.QuerySPARQL(obsTestQuery, 5); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert([]sama.Triple{
		{S: sama.NewIRI("NewSen"), P: sama.NewIRI("sponsor"), O: sama.NewIRI("B1432")},
		{S: sama.NewIRI("NewSen"), P: sama.NewIRI("gender"), O: sama.NewLiteral("Male")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QuerySPARQL(obsTestQuery, 5); err != nil {
		t.Fatal(err)
	}
	want := db.CacheStats()["align"].Invalidations
	if want == 0 {
		t.Fatal("re-confirmation refused no stale entry; the test needs an insert that changes a cut")
	}
	if got := scrape(t, db)[`sama_cache_invalidations_total{cache="align"}`]; got != float64(want) {
		t.Errorf("sama_cache_invalidations_total = %v, want %d", got, want)
	}
}

// TestExtractedPathsMetric: sama_extracted_paths_total is the sum, over
// the queries run, of the candidates each cluster retrieved (the
// explain plan's align[i] retrieved). The memo is purged before each
// query, so every cluster retrieves.
func TestExtractedPathsMetric(t *testing.T) {
	db := obsTestDB(t)
	var want int64
	for _, q := range []string{obsTestQuery, `SELECT ?x WHERE { ?x <subject> "Health Care" }`} {
		if err := db.DropCache(); err != nil {
			t.Fatal(err)
		}
		_, plan, err := db.Explain(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, ph := range plan.Phases {
			if ph.Name != "cluster" {
				continue
			}
			for _, c := range ph.Children {
				want += c.Attrs["retrieved"]
			}
		}
	}
	if want == 0 {
		t.Fatal("the plans retrieved no candidate")
	}
	if got := scrape(t, db)["sama_extracted_paths_total"]; got != float64(want) {
		t.Errorf("sama_extracted_paths_total = %v, want the plans' %d", got, want)
	}
}

// TestIndexDiskBytesMetric: after inserts and a checkpoint,
// sama_index_disk_bytes is the size of the two index files, the log
// left out.
func TestIndexDiskBytesMetric(t *testing.T) {
	base := filepath.Join(t.TempDir(), "db")
	db, err := sama.Create(base, sama.NewGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 20; i++ {
		s := sama.NewIRI("s" + strconv.Itoa(i))
		if err := db.Insert([]sama.Triple{{S: s, P: sama.NewIRI("p"), O: sama.NewLiteral("o")}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, name := range []string{base + ".pages", base + ".meta"} {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		want += fi.Size()
	}
	if got := scrape(t, db)["sama_index_disk_bytes"]; got != float64(want) {
		t.Errorf("sama_index_disk_bytes = %v, want the files' %d", got, want)
	}
}

// TestPoolEvictionsMetric: a query whose candidates span several pages
// evicts from a one-page pool, and sama_pool_evictions_total reads the
// pool's own counter.
func TestPoolEvictionsMetric(t *testing.T) {
	g := sama.NewGraph()
	for i := 0; i < 3000; i++ {
		s := sama.NewIRI("sen" + strconv.Itoa(i))
		g.AddTriple(sama.Triple{S: s, P: sama.NewIRI("gender"), O: sama.NewLiteral("Male")})
		g.AddTriple(sama.Triple{S: s, P: sama.NewIRI("sponsor"), O: sama.NewIRI("bill" + strconv.Itoa(i))})
	}
	db, err := sama.Create(filepath.Join(t.TempDir(), "db"), g, sama.WithPoolPages(1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.QuerySPARQL(obsTestQuery, 5); err != nil {
		t.Fatal(err)
	}
	want := db.PoolStats().Evictions
	if want == 0 {
		t.Fatal("a one-page pool evicted nothing")
	}
	if got := scrape(t, db)["sama_pool_evictions_total"]; got != float64(want) {
		t.Errorf("sama_pool_evictions_total = %v, want %d", got, want)
	}
}

// TestServeMountsDebugRoutes: the query server's one listener also
// serves the debug tree, so nothing needs a second listener for it.
func TestServeMountsDebugRoutes(t *testing.T) {
	db := obsTestDB(t)
	srv, err := db.Serve("127.0.0.1:0", sama.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := httpGet(t, http.DefaultClient, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(body, "sama_pool_hits_total") {
		t.Errorf("metrics body missing pool counters:\n%.300s", body)
	}
	if body := httpGet(t, http.DefaultClient, "http://"+srv.Addr()+"/debug/lastqueries"); !strings.HasPrefix(body, "[") {
		t.Errorf("/debug/lastqueries is not the trace array:\n%.300s", body)
	}
}

// TestHandlerMaxKCapsEveryK: the server's MaxK bounds the answer count
// whatever sets it — DefaultK, ?k or the query's LIMIT, which replaces
// k for library callers.
func TestHandlerMaxKCapsEveryK(t *testing.T) {
	db := obsTestDB(t)
	if res, err := db.QuerySPARQL(obsTestQuery+" LIMIT 5", 1); err != nil || len(res.Answers) < 2 {
		t.Fatalf("library LIMIT 5 over k=1: %v answers, err %v; want LIMIT to win", len(res.Answers), err)
	}
	srv := httptest.NewServer(db.Handler(sama.ServerOptions{MaxK: 1}))
	defer srv.Close()
	for _, c := range []struct{ params, src string }{
		{"", obsTestQuery},
		{"?k=5", obsTestQuery},
		{"", obsTestQuery + " LIMIT 5"},
		{"?k=3", obsTestQuery + " LIMIT 5"},
		{"", "SELECT DISTINCT ?x ?y WHERE { ?x <sponsor> ?y . ?x <gender> \"Male\" } LIMIT 5"},
	} {
		resp, err := srv.Client().Post(srv.URL+"/query"+c.params, "application/sparql-query", strings.NewReader(c.src))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Answers []json.RawMessage }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %q: status %d, %v", c.params, c.src, resp.StatusCode, err)
		}
		if len(body.Answers) != 1 {
			t.Errorf("%s %q: %d answers, want MaxK = 1", c.params, c.src, len(body.Answers))
		}
	}
}

// TestDBOwnsNoGoroutine pins that a database is passive: opening one
// starts no background goroutine (every metric is read at scrape time,
// not polled), so Close has nothing to stop and the count ends where it
// began.
func TestDBOwnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	// settled reports the goroutines beyond the starting count, giving
	// ones that are merely finishing (a query's per-path cluster
	// goroutines have signalled done but may not have exited yet) a
	// moment to go; a goroutine the DB owns never does.
	settled := func() int {
		var extra int
		for i := 0; i < 100; i++ {
			if extra = runtime.NumGoroutine() - before; extra <= 0 {
				return 0
			}
			time.Sleep(5 * time.Millisecond)
		}
		return extra
	}
	db := obsTestDB(t)
	if _, err := db.QuerySPARQL(obsTestQuery, 3); err != nil {
		t.Fatal(err)
	}
	if extra := settled(); extra > 0 {
		t.Errorf("an open DB runs %d goroutines beyond the %d before Create", extra, before)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if extra := settled(); extra > 0 {
		t.Errorf("%d goroutines more after Close than before Create", extra)
	}
}

// TestPoolStatsDuringConcurrentQueries snapshots PoolStats and scrapes
// /metrics while queries run — the -race guard for the atomic pool
// counters satellite.
func TestPoolStatsDuringConcurrentQueries(t *testing.T) {
	db := obsTestDB(t)
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := db.PoolStats()
				_ = st.HitRate()
				httpGet(t, srv.Client(), srv.URL+"/metrics")
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := db.QuerySPARQL(obsTestQuery, 3); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snaps.Wait()
	st := db.PoolStats()
	if st.Hits+st.Misses == 0 {
		t.Error("no pool traffic recorded")
	}
}

// TestMetricsReferenceMatchesRegistry pins the README's metrics
// reference to the registry: a session that touches every family — a
// query, a deadline-expired query, an insert and one shed once the
// handler drains — must leave /metrics with exactly the families the
// table lists, each with the table's type and label names.
func TestMetricsReferenceMatchesRegistry(t *testing.T) {
	want := readmeMetrics(t)

	db := obsTestDB(t)
	if err := db.Insert([]sama.Triple{{S: sama.NewIRI("NewSen"), P: sama.NewIRI("sponsor"), O: sama.NewIRI("A0056")}}); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if res, err := db.QuerySPARQLContext(expired, obsTestQuery, 5); err != nil || !res.Partial {
		t.Fatalf("deadline-expired query: partial=%v err=%v", res != nil && res.Partial, err)
	}

	h := db.Handler(sama.ServerOptions{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	post := func(src string) int {
		resp, err := srv.Client().Post(srv.URL+"/query?k=5", "application/sparql-query", strings.NewReader(src))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(obsTestQuery); code != http.StatusOK {
		t.Errorf("query: status %d, want 200", code)
	}
	h.Drain()
	if code := post(obsTestQuery); code != http.StatusServiceUnavailable {
		t.Errorf("a query after Drain: status %d, want 503", code)
	}

	body := httpGet(t, srv.Client(), srv.URL+"/metrics")
	if v := parseSamples(t, body)[`sama_server_shed_total{reason="draining"}`]; v != 1 {
		t.Errorf(`sama_server_shed_total{reason="draining"} = %v, want 1`, v)
	}
	got := scrapeFamilies(t, body)
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("README lists %s; /metrics has no such family", name)
		case g.kind != w.kind || !slices.Equal(g.labels, w.labels):
			t.Errorf("%s: /metrics has %s %v, README says %s %v", name, g.kind, g.labels, w.kind, w.labels)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("/metrics has %s; the README's metrics reference does not list it", name)
		}
	}
}

// metricFamily is one family's type and sorted label names.
type metricFamily struct {
	kind   string
	labels []string
}

var (
	readmeRow  = regexp.MustCompile("^\\| `(sama_[a-z_]+)` \\| ([a-z]+) \\| ([^|]*) \\|")
	readmeCode = regexp.MustCompile("`([a-z_]+)`")
	labelName  = regexp.MustCompile(`([a-z_]+)="`)
	typeLine   = regexp.MustCompile(`^# TYPE (\S+) (\S+)$`)
)

// readmeMetrics parses the README's "Metrics reference" table.
func readmeMetrics(t *testing.T) map[string]metricFamily {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(b), "### Metrics reference\n")
	if !ok {
		t.Fatal("README.md has no Metrics reference section")
	}
	table, _, _ = strings.Cut(table, "\n#")
	out := map[string]metricFamily{}
	for _, line := range strings.Split(table, "\n") {
		m := readmeRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var labels []string
		for _, l := range readmeCode.FindAllStringSubmatch(m[3], -1) {
			labels = append(labels, l[1])
		}
		slices.Sort(labels)
		out[m[1]] = metricFamily{kind: m[2], labels: labels}
	}
	if len(out) == 0 {
		t.Fatal("README.md's Metrics reference lists no family")
	}
	return out
}

// scrapeFamilies maps each family of a classic text exposition to its
// type and the label names its samples carry (le excepted).
func scrapeFamilies(t *testing.T, body string) map[string]metricFamily {
	t.Helper()
	out := map[string]metricFamily{}
	for _, line := range strings.Split(body, "\n") {
		if m := typeLine.FindStringSubmatch(line); m != nil {
			out[m[1]] = metricFamily{kind: m[2]}
		}
	}
	for _, line := range strings.Split(body, "\n") {
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name, _, _ := strings.Cut(m[1], "{")
		if _, ok := out[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		f, ok := out[name]
		if !ok {
			t.Fatalf("sample %q has no # TYPE line", line)
		}
		for _, l := range labelName.FindAllStringSubmatch(m[1], -1) {
			if l[1] != "le" && !slices.Contains(f.labels, l[1]) {
				f.labels = append(f.labels, l[1])
			}
		}
		slices.Sort(f.labels)
		out[name] = f
	}
	return out
}

func httpGet(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b)
}

var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (-?(?:[0-9.e+-]+|\+Inf|NaN))$`)

// checkPrometheusText validates every line of a classic (0.0.4) text
// exposition: either a HELP/TYPE comment or a bare `name{labels} value`
// sample. The classic grammar allows nothing after the value but an
// integer timestamp.
func checkPrometheusText(t *testing.T, body string) {
	t.Helper()
	if body == "" {
		t.Fatal("empty /metrics body")
	}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("line %d is not parseable Prometheus text: %q", i+1, line)
		}
	}
}

// parseSamples maps `name{labels}` → value for every sample line.
func parseSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			if m[2] == "+Inf" {
				continue
			}
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[m[1]] = v
	}
	return out
}
