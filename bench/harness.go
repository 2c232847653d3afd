package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sama"
	"sama/client"
	"sama/internal/rdf"
)

// config is one invocation of the benchmark.
type config struct {
	workload *workloadDef
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the data for the smoke test (1 = the benchmark); no
	// flag sets it.
	scale float64
	// benchDir holds this package's files: expected/, out/.
	benchDir string
	clock    cpuClock
	// log receives the human-readable report.
	log io.Writer
}

// env is one built and served database.
type env struct {
	dir    string
	db     *sama.DB
	srv    *sama.QueryServer
	cl     *client.Client
	wire   *meteredTransport
	data   dataset
	buildT interval // the sama.Create call
}

// meteredTransport is the client's single keep-alive connection. It
// counts response bytes and dials, and drains every body before closing
// it: client.Query stops reading at the end of the JSON value, and a
// chunked body closed one read short of EOF would cost the connection.
type meteredTransport struct {
	base      *http.Transport
	dials     atomic.Int64
	lastBytes int64 // body bytes of the most recent response
}

func newMeteredTransport() *meteredTransport {
	m := &meteredTransport{}
	dialer := &net.Dialer{}
	m.base = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			m.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConns:       1,
		MaxConnsPerHost:    1,
		DisableCompression: true,
	}
	return m
}

func (m *meteredTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := m.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	m.lastBytes = 0
	resp.Body = &meteredBody{rc: resp.Body, n: &m.lastBytes}
	return resp, nil
}

type meteredBody struct {
	rc io.ReadCloser
	n  *int64
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	*b.n += int64(n)
	return n, err
}

func (b *meteredBody) Close() error {
	n, _ := io.Copy(io.Discard, b.rc) // a short drain only costs reuse
	*b.n += n
	return b.rc.Close()
}

// setUp generates the workload's data, builds the index under a fresh
// directory of benchDir/out and serves it in-process.
func setUp(cfg *config) (*env, error) {
	e := &env{data: cfg.workload.generate(cfg.scale)}
	g, err := rdf.NewGraphFromTriples(e.data.base)
	if err != nil {
		return nil, fmt.Errorf("base graph: %w", err)
	}

	outDir := filepath.Join(cfg.benchDir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(outDir, "run-"+cfg.workload.name+"-"); err != nil {
		return nil, err
	}
	sw := cfg.clock.start()
	e.db, err = sama.Create(filepath.Join(e.dir, "index"), g,
		sama.WithThesaurus(sama.BenchmarkThesaurus()),
		sama.WithWAL(filepath.Join(e.dir, "wal")))
	if err != nil {
		os.RemoveAll(e.dir)
		return nil, fmt.Errorf("build index: %w", err)
	}
	e.buildT = sw.stop()
	if e.srv, err = e.db.Serve("127.0.0.1:0", sama.ServerOptions{}); err != nil {
		e.close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	e.wire = newMeteredTransport()
	e.cl = client.New("http://" + e.srv.Addr())
	e.cl.HTTP = &http.Client{Transport: e.wire}
	return e, nil
}

// close stops the server (waiting for its handlers), closes the database
// and removes the run directory. It is safe on a partly set-up env.
func (e *env) close() error {
	var errs []error
	if e.wire != nil {
		e.wire.base.CloseIdleConnections()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.srv.Shutdown(ctx))
		cancel()
	}
	if e.db != nil {
		errs = append(errs, e.db.Close())
	}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
	}
	return errors.Join(errs...)
}

// diskBytes sums the sizes of the files under the run directory: pages,
// metadata with postings and summaries, the delta sidecar and the WAL.
func (e *env) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(e.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// runner drives one op stream against one env and keeps the failure
// count. Failures are counted, never timed around: a transport error, a
// non-200 (a shed request included), a partial result, a wrong answer
// and a failed insert each add one.
type runner struct {
	cfg       *config
	env       *env
	stream    *opStream
	check     *checker
	attempted int
	failed    int
	shed      int      // failures that were 503s
	errs      []string // the first few failures, for the report
}

func (r *runner) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// query sends one op and checks its answer. The returned duration is the
// client.Query round trip alone; resp is nil when the request failed.
func (r *runner) query(ctx context.Context, o op, opts client.QueryOptions) (*client.QueryResponse, time.Duration) {
	r.attempted++
	t0 := time.Now()
	resp, err := r.env.cl.Query(ctx, o.sparql, opts)
	rt := time.Since(t0)
	if err != nil {
		if client.IsOverloaded(err) {
			r.shed++
		}
		r.fail(fmt.Errorf("%s: %w", o.key, err))
		return nil, rt
	}
	if err := r.check.check(o, resp); err != nil {
		r.fail(err)
		return nil, rt
	}
	return resp, rt
}

// insert applies the batch that ends block b; ok is false when the
// stream has no batch left.
func (r *runner) insert(b int) (d time.Duration, ok bool) {
	batch := r.env.data.batch(b)
	if batch == nil {
		return 0, false
	}
	r.attempted++
	r.check.mutated = true
	t0 := time.Now()
	err := r.env.db.Insert(batch)
	d = time.Since(t0)
	if err != nil {
		r.fail(fmt.Errorf("insert batch %d: %w", b, err))
	}
	return d, true
}

// block is what one block of the stream measured.
type block struct {
	interval
	correct int             // queries answered correctly
	rts     []time.Duration // round trips of the correct ones
	insert  time.Duration   // 0 on read-only workloads
}

// each is called per op of the block by runBlock; the plain run uses
// plainQuery, the traced run adds its spans and the replay.
type each func(ctx context.Context, b int, o op) (*client.QueryResponse, time.Duration)

func (r *runner) plainQuery(ctx context.Context, _ int, o op) (*client.QueryResponse, time.Duration) {
	return r.query(ctx, o, client.QueryOptions{})
}

// runBlock runs the stream's next block. ok is false when the block is
// incomplete and the run has to stop: the context ended or the insert
// stream ran dry.
func (r *runner) runBlock(ctx context.Context, fn each) (blk block, ok bool) {
	b := r.stream.n
	ops := r.stream.next()
	sw := r.cfg.clock.start()
	for _, o := range ops {
		if ctx.Err() != nil {
			return blk, false
		}
		if resp, rt := fn(ctx, b, o); resp != nil {
			blk.correct++
			blk.rts = append(blk.rts, rt)
		}
	}
	if r.cfg.workload.writes {
		if blk.insert, ok = r.insert(b); !ok {
			return blk, false
		}
	}
	blk.interval = sw.stop()
	return blk, ctx.Err() == nil
}

// runFor runs whole blocks until limit of wall time has passed, calling
// after (when set) at each block boundary with the blocks so far.
func (r *runner) runFor(ctx context.Context, limit time.Duration, fn each, after func([]block)) []block {
	var blocks []block
	for start := time.Now(); time.Since(start) < limit; {
		blk, ok := r.runBlock(ctx, fn)
		if !ok {
			break
		}
		blocks = append(blocks, blk)
		if after != nil {
			after(blocks)
		}
	}
	return blocks
}
