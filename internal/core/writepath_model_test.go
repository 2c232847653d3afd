package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sama/internal/datasets"
	"sama/internal/index"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
	"sama/internal/textindex"
	"sama/internal/workload"
)

// TestWritePathModel is the write path's one oracle: a seeded state
// machine over insert, query, checkpoint, compaction, reopen and crash
// (a copy of the files between commands). It keeps a model graph and the
// batches logged since the last checkpoint — a failed one is in commit
// limbo (DESIGN §10), dropped by a checkpoint, replayed by a crash — and
// after each command checks the records against a fresh build of the
// model graph (checkRecords), a memo engine's answers against a
// memo-less one's and every re-confirmation against a re-pick (query),
// and an insert's delta and layout (insert). A failed run logs its
// command trace; its subtest names the seed.
func TestWritePathModel(t *testing.T) {
	tally := map[string]int{}
	for _, s := range []struct {
		seed  int64
		extra int // LUBM triples streamed after a 6 k base; 0: a sourceless ring
		eopts Options
		iopts index.Options
	}{
		{3, 2500, Options{MaxCandidatesPerCluster: 16}, index.Options{}},
		{11, 3000, Options{}, index.Options{CheckpointBytes: 8 << 10}},
		{7, 2000, Options{MaxCandidatesPerCluster: 16}, index.Options{Thesaurus: textindex.BenchmarkThesaurus()}},
		{5, 0, Options{}, index.Options{}},
	} {
		t.Run(fmt.Sprintf("seed-%d", s.seed), func(t *testing.T) {
			m := newWriteModel(t, s.eopts, s.iopts)
			if s.extra > 0 {
				m.lubm(s.seed, 6000, s.extra)
			} else {
				m.sourceless()
			}
			rng := rand.New(rand.NewSource(s.seed))
			for range 36 {
				m.run(m.draw(rng))
			}
			for k, n := range m.tally {
				tally[k] += n
			}
		})
	}
	if t.Failed() {
		return
	}
	t.Logf("over every seed: %v", tally)
	for _, k := range []string{"insert", "query", "checkpoint", "compact", "reopen", "crash",
		"limbo replayed", "limbo dropped", decidedServed, decidedRefused, "layout bump"} {
		if tally[k] == 0 {
			t.Errorf("no seed ran %q; the model needs every command and event once", k)
		}
	}
}

// The kinds of command, and how an insert's batch is drawn.
const (
	cmdInsert = iota
	cmdQuery
	cmdCheckpoint
	cmdCompact
	cmdReopen
	cmdCrash

	insFresh   = "fresh"   // the stream's next batch
	insReapply = "reapply" // a committed batch again, as replay applies it
	insUnroot  = "unroot"  // a new subject pointing at an indexed root
	insFaulted = "faulted" // under a one-shot page-read fault after DropCache
	insInvalid = "invalid" // rejected by validation
)

var cmdNames = [...]string{"insert", "query", "checkpoint", "compact", "reopen", "crash"}

// command is one step of a model run, drawn or scripted.
type command struct {
	kind    int
	how     string       // insert: how the batch was drawn ("" when scripted)
	batch   []rdf.Triple // insert
	fault   uint64       // faulted insert: the page reads that pass before one fails
	queries []int        // query: indices into the pool
}

func (c command) String() string {
	return fmt.Sprintf("%s %s batch=%d fault=%d queries=%v", cmdNames[c.kind], c.how, len(c.batch), c.fault, c.queries)
}

// writeModel drives one index and its engines through commands and
// checks them against the model.
type writeModel struct {
	t         *testing.T
	eopts     Options
	iopts     index.Options
	base      string
	ix        *index.Index
	fi        *storage.FaultInjector
	pair      memoPair
	pool      []*rdf.QueryGraph
	pres      []*Preprocessed
	stream    []rdf.Triple                  // what fresh LUBM inserts take
	next      func(*rand.Rand) []rdf.Triple // fresh inserts of the sourceless ring
	trace     []string
	tally     map[string]int
	decisions []string // the last query command's decision kinds
	// The model: the graph of every acknowledged triple (seen), grown at
	// version; the committed batches; the batches logged since the last
	// checkpoint.
	g       *rdf.Graph
	seen    map[rdf.Triple]bool
	version int
	batches [][]rdf.Triple
	logged  []loggedBatch
	// What the last records check read, by ID, in handle readIn at layout
	// readLayout: each live path (zero for a dead ID) and its pathHash,
	// got their digest; want is a fresh build's digest at version wantAt.
	recs       []paths.Path
	hashes     []uint64
	readIn     *index.Index
	readLayout uint64
	got, want  digest
	wantAt     int
}

type loggedBatch struct {
	ts    []rdf.Triple
	limbo bool // its apply failed: a checkpoint drops it, a crash replays it
}

// digest is an order-free digest of a multiset of path hashes.
type digest struct {
	n       int
	sum, sq uint64
}

func (d *digest) add(h uint64, n int) {
	d.n, d.sum, d.sq = d.n+n, d.sum+uint64(n)*h, d.sq+uint64(n)*h*h
}

var pathSeed = maphash.MakeSeed()

func pathHash(p paths.Path) uint64 { return maphash.String(pathSeed, p.Key()) }

func noErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func newWriteModel(t *testing.T, eopts Options, iopts index.Options) *writeModel {
	m := &writeModel{t: t, eopts: eopts, tally: map[string]int{},
		g: rdf.NewGraph(), seen: map[rdf.Triple]bool{}, wantAt: -1}
	iopts.WrapIO = func(io storage.PageIO) storage.PageIO {
		m.fi = storage.NewFaultInjector(io)
		return m.fi
	}
	m.iopts = iopts
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("commands:\n  %s", strings.Join(m.trace, "\n  "))
		}
	})
	return m
}

// lubm starts the model on the first base triples of a LUBM stream of
// base+extra, queried by Q1–Q10; the rest are inserted.
func (m *writeModel) lubm(seed int64, base, extra int) {
	ts := datasets.LUBM{}.Generate(base+extra, seed).Triples()
	m.stream = ts[base:]
	var pool []*rdf.QueryGraph
	for _, q := range workload.LUBMQueries()[:10] {
		pool = append(pool, q.Pattern)
	}
	m.start(ts[:base], pool)
}

// sourceless starts the model on a ring with a chord. No node is a
// source, and a batch hangs edges off ring nodes onto ring nodes or new
// ones, so every insert is hub-rooted and starts a new layout.
func (m *writeModel) sourceless() {
	node := func(i int) rdf.Term { return iri(fmt.Sprintf("n%d", i%8)) }
	g := []rdf.Triple{{S: node(0), P: iri("q"), O: node(4)}}
	for i := range 8 {
		g = append(g, rdf.Triple{S: node(i), P: iri("p"), O: node(i + 1)})
	}
	m.next = func(rng *rand.Rand) (ts []rdf.Triple) {
		for range 1 + rng.Intn(2) {
			o := node(rng.Intn(8))
			if rng.Intn(2) == 0 {
				o = iri(fmt.Sprintf("d%d", len(m.trace)))
			}
			ts = append(ts, rdf.Triple{S: node(rng.Intn(8)), P: iri([]string{"p", "q"}[rng.Intn(2)]), O: o})
		}
		return ts
	}
	m.start(g, []*rdf.QueryGraph{oneTriple(vr("x"), iri("p"), iri("n3")), oneTriple(vr("x"), iri("q"), vr("y")),
		oneTriple(iri("n0"), vr("p"), vr("y"))})
}

func oneTriple(s, p, o rdf.Term) *rdf.QueryGraph {
	q := rdf.NewQueryGraph()
	q.AddTriple(rdf.Triple{S: s, P: p, O: o})
	return q
}

// start builds the index over ts and checks its records.
func (m *writeModel) start(ts []rdf.Triple, pool []*rdf.QueryGraph) {
	g, err := rdf.NewGraphFromTriples(ts)
	noErr(m.t, err)
	m.gain(ts)
	m.base, m.pool = m.newBase(), pool
	ix, err := index.Build(m.base, g, m.iopts)
	noErr(m.t, err)
	m.attach(ix)
	m.t.Cleanup(func() { m.ix.Close() })
	m.checkRecords()
}

// newBase names an index base in a fresh directory.
func (m *writeModel) newBase() string { return filepath.Join(m.t.TempDir(), "ix") }

func (m *writeModel) attach(ix *index.Index) {
	m.ix, m.pair, m.pres = ix, newMemoPair(ix, m.eopts), m.pres[:0]
	for _, q := range m.pool {
		m.pres = append(m.pres, m.pair.memo.Preprocess(q))
	}
}

// gain adds an acknowledged batch to the model graph.
func (m *writeModel) gain(ts []rdf.Triple) {
	for _, tr := range ts {
		if !m.seen[tr] {
			m.seen[tr] = true
			m.g.AddTriple(tr)
			m.version++
		}
	}
}

// checkpointed drops the log since the last checkpoint.
func (m *writeModel) checkpointed() {
	for _, b := range m.logged {
		if b.limbo {
			m.tally["limbo dropped"]++
		}
	}
	m.logged = nil
}

// draw picks the next command at random.
func (m *writeModel) draw(rng *rand.Rand) command {
	switch w := rng.Intn(100); {
	case w < 45:
		return m.drawInsert(rng)
	case w < 72:
		return command{kind: cmdQuery, queries: rng.Perm(len(m.pool))[:1+rng.Intn(2)]}
	case w < 80:
		return command{kind: cmdCheckpoint}
	case w < 86:
		return command{kind: cmdCompact}
	case w < 92:
		return command{kind: cmdReopen}
	}
	return command{kind: cmdCrash}
}

func (m *writeModel) drawInsert(rng *rand.Rand) command {
	fresh := func() []rdf.Triple {
		if m.next != nil {
			return m.next(rng)
		}
		n := min(20+rng.Intn(101), len(m.stream))
		ts := m.stream[:n]
		m.stream = m.stream[n:]
		return ts
	}
	c := command{kind: cmdInsert, how: insFresh}
	switch w := rng.Intn(100); {
	case w < 15 && len(m.batches) > 0:
		c.how, c.batch = insReapply, m.batches[rng.Intn(len(m.batches))]
	case w < 30 && m.next == nil:
		ids := m.liveIDs()
		c.how, c.batch = insUnroot, []rdf.Triple{{S: iri(fmt.Sprintf("urn:model:adopter%d", len(m.trace))),
			P: iri("urn:model:adopts"), O: m.recs[ids[rng.Intn(len(ids))]].Source()}}
	case w < 40:
		c.how, c.batch, c.fault = insFaulted, fresh(), uint64(max(0, rng.Intn(6)-3))
	case w < 44:
		c.how, c.batch = insInvalid, append(slices.Clone(fresh()), rdf.Triple{S: lit("x"), P: iri("p"), O: iri("o")})
	case m.next == nil && len(m.stream) == 0:
		return command{kind: cmdCheckpoint}
	default:
		c.batch = fresh()
	}
	return c
}

func (m *writeModel) liveIDs() (ids []index.PathID) {
	for id, p := range m.recs {
		if len(p.Nodes) > 0 {
			ids = append(ids, index.PathID(id))
		}
	}
	return ids
}

// run applies c to the index and the model and checks the oracles.
func (m *writeModel) run(c command) {
	m.t.Helper()
	m.trace = append(m.trace, c.String())
	m.tally[cmdNames[c.kind]]++
	label := fmt.Sprintf("command %d (%s)", len(m.trace), c)
	switch c.kind {
	case cmdInsert:
		m.insert(label, c)
	case cmdQuery:
		m.query(label, c.queries)
	case cmdCheckpoint:
		noErr(m.t, m.ix.Checkpoint())
		m.checkpointed()
	case cmdCompact:
		layout := inView(m.pair.memo, backend.Layout)
		_, err := m.ix.Compact(context.Background())
		noErr(m.t, err)
		m.checkpointed()
		m.checkLayoutBump(label, layout)
		m.checkRebuilt(label)
	case cmdReopen, cmdCrash:
		// Close checkpoints; a crash copy's Open replays the log since
		// the last checkpoint, limbo batches included.
		base, records, triples := m.base, 0, 0
		if c.kind == cmdCrash {
			base, records = m.crashCopy(), len(m.logged)
			for _, b := range m.logged {
				if triples += len(b.ts); b.limbo {
					m.gain(b.ts)
					m.batches = append(m.batches, b.ts)
					m.tally["limbo replayed"]++
				}
			}
			m.logged = nil
		}
		noErr(m.t, m.ix.Close())
		m.checkpointed()
		ix, err := index.Open(base, m.iopts)
		noErr(m.t, err)
		m.base = base
		m.attach(ix)
		if rs := m.ix.Recovery(); rs.Records != records || rs.Triples != triples {
			m.t.Fatalf("%s: Open replayed %d records of %d triples; %d of %d were logged since the last checkpoint",
				label, rs.Records, rs.Triples, records, triples)
		}
	}
	m.checkRecords()
}

// crashCopy copies the index's files as a kill now would leave them, but
// for the lock, a flock no copy carries, and returns the copy's base.
func (m *writeModel) crashCopy() string {
	base := m.newBase()
	from, to := filepath.Dir(m.base), filepath.Dir(base)
	noErr(m.t, filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		dst := filepath.Join(to, strings.TrimPrefix(path, from))
		switch {
		case err != nil || path == from || strings.HasSuffix(path, ".lock"):
			return err
		case d.IsDir():
			return os.Mkdir(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(dst, data, 0o644)
		}
		return err
	}))
	return base
}

func (m *writeModel) checkLayoutBump(label string, before uint64) {
	w, after := inView(m.pair.memo, backend.Watermark), inView(m.pair.memo, backend.Layout)
	if after != before+1 || w.Tombs != 0 {
		m.t.Fatalf("%s: layout %d → %d with %d tombstones logged; want one bump and an empty log", label, before, after, w.Tombs)
	}
	m.tally["layout bump"]++
}

// insert applies c's batch. The model graph gains it exactly when the
// insert returns nil; a failed one is in limbo if it was logged, which
// only validation prevents. An insert that keeps the layout must leave
// what reconfirm reads, checked through the Reader: its new IDs are
// exactly those from the old path count up, all live and in their
// sinks' postings from there (a path dead before and live after fails
// checkRecords); the paths tombstoned since the old watermark are
// exactly those live before and dead after, read through the sinks of
// every dead one and of every 64th kept one; a kept path's summary is as
// it was. A re-applied batch stages and tombstones nothing, and an
// unroot batch tombstones its root's paths.
func (m *writeModel) insert(label string, c command) {
	ids0 := m.liveIDs()
	w0, layout0 := inView(m.pair.memo, backend.Watermark), inView(m.pair.memo, backend.Layout)
	sums0, err := m.ix.Summaries(ids0)
	noErr(m.t, err)
	hub, wal := len(m.ix.Graph().Sources()) == 0, m.ix.WALStats()
	if c.how == insFaulted {
		noErr(m.t, m.ix.DropCache())
		m.fi.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.Permanent, AfterN: c.fault, Times: 1})
	}
	err = m.ix.InsertTriples(c.batch)
	m.fi.Clear()
	switch logged := m.ix.WALStats().Appends > wal.Appends; {
	case c.how == insInvalid:
		if err == nil || logged {
			m.t.Fatalf("%s: an invalid batch: err %v, logged %v; want an error and no log record", label, err, logged)
		}
		return
	case c.how != insFaulted && err != nil:
		m.t.Fatalf("%s: %v", label, err)
	case !logged:
		m.t.Fatalf("%s: a valid batch (err %v) left no log record", label, err)
	case err != nil:
		m.logged = append(m.logged, loggedBatch{c.batch, true})
		return
	}
	m.gain(c.batch)
	m.batches = append(m.batches, c.batch)
	m.logged = append(m.logged, loggedBatch{c.batch, false})
	if m.ix.WALStats().Checkpoints > wal.Checkpoints {
		m.checkpointed() // automatic, past CheckpointBytes
	}
	if hub || len(m.ix.Graph().Sources()) == 0 {
		m.checkLayoutBump(label, layout0)
		return
	}
	m.ix.View(func(r index.Reader) error {
		w1 := r.Watermark()
		if r.Layout() != layout0 || (c.how == insReapply && w1 != w0) {
			m.t.Fatalf("%s: the insert moved the layout %d → %d and the watermark %+v → %+v", label, layout0, r.Layout(), w0, w1)
		}
		var fresh []index.PathID
		for id := w0.Paths; id < w1.Paths; id++ {
			fresh = append(fresh, index.PathID(id))
		}
		runs, _, err := r.ReadPathsBatched(context.Background(), fresh) // fails on a dead ID
		noErr(m.t, err)
		for i, run := range runs {
			p := r.Terms().Path(run)
			if got := r.PostingsFrom(nil, index.Sinks, p.Sink().Label(), index.PathID(w0.Paths)); !slices.Contains(got, fresh[i]) {
				m.t.Fatalf("%s: new path %d is not among its sink's postings from %d: %v", label, fresh[i], w0.Paths, got)
			}
		}
		var died, kept, logged []index.PathID
		var keptSums []index.PathSummary
		sinks := map[string]bool{}
		for i, id := range ids0 {
			if !r.Live(id) {
				died = append(died, id)
			} else if kept, keptSums = append(kept, id), append(keptSums, sums0[i]); len(kept)%64 != 1 {
				continue
			}
			sinks[m.recs[id].Sink().Label()] = true
		}
		for sink := range sinks {
			logged = append(logged, r.TombstonedSince(w0, index.Sinks, sink)...)
		}
		slices.Sort(logged)
		if logged = slices.Compact(logged); !slices.Equal(logged, died) {
			m.t.Fatalf("%s: tombstoned since the insert's watermark %v; live before and dead after %v", label, logged, died)
		}
		sums, err := r.SummariesInto(new(index.Scratch), kept)
		noErr(m.t, err)
		for i, sum := range sums {
			if sum != keptSums[i] {
				m.t.Fatalf("%s: kept path %d's summary changed from %+v to %+v", label, kept[i], keptSums[i], sum)
			}
			if c.how == insUnroot && m.recs[kept[i]].Source() == c.batch[0].O {
				m.t.Fatalf("%s: path %d of the former root %v is still live", label, kept[i], c.batch[0].O)
			}
		}
		return nil
	})
}

// query runs each of qs: it decides the stale memo entries of the
// query's paths against a re-pick — the re-confirmations a lookup makes
// — then runs the query on both engines.
func (m *writeModel) query(label string, qs []int) {
	m.decisions = m.decisions[:0]
	for _, qi := range qs {
		for pi, q := range m.pres[qi].Paths {
			if kind := decide(m.t, m.pair.memo, fmt.Sprintf("%s, query %d path %d", label, qi, pi), q); kind != "" {
				m.decisions = append(m.decisions, kind)
				m.tally[kind]++
			}
		}
		m.pair.check(m.t, fmt.Sprintf("%s, query %d", label, qi), m.pool[qi])
	}
}

// checkRecords checks the live records, read through ReadPathsBatched,
// against a fresh build of the model graph — the paths Build writes,
// which paths.Stream emits in Enumerate's order, enumerated again only
// when the graph grew — and the index's graph against the model's.
// Within one handle and layout an ID names one record for good, so a
// check keeps what the last one read and reads only the IDs committed
// since; a new handle or layout reads them all.
func (m *writeModel) checkRecords() {
	m.t.Helper()
	after := "the build"
	if len(m.trace) > 0 {
		after = m.trace[len(m.trace)-1]
	}
	noErr(m.t, m.ix.View(func(r index.Reader) error {
		if m.readIn != m.ix || m.readLayout != r.Layout() {
			m.recs, m.hashes, m.got = m.recs[:0], m.hashes[:0], digest{}
		}
		var ids []index.PathID
		for id := range r.NumPaths() {
			switch live, known := r.Live(index.PathID(id)), id < len(m.recs); {
			case live && !known:
				ids = append(ids, index.PathID(id))
			case live && len(m.recs[id].Nodes) == 0:
				m.t.Fatalf("after %q: path %d, dead at the last check, is live", after, id)
			case !live && known && len(m.recs[id].Nodes) > 0:
				m.recs[id] = paths.Path{}
				m.got.add(m.hashes[id], -1)
			}
		}
		runs, _, err := r.ReadPathsBatched(context.Background(), ids)
		m.recs = append(m.recs, make([]paths.Path, r.NumPaths()-len(m.recs))...)
		m.hashes = append(m.hashes, make([]uint64, r.NumPaths()-len(m.hashes))...)
		for i, run := range runs {
			p := r.Terms().Path(run)
			m.recs[ids[i]], m.hashes[ids[i]] = p, pathHash(p)
			m.got.add(m.hashes[ids[i]], 1)
		}
		m.readIn, m.readLayout = m.ix, r.Layout()
		return err
	}))
	if m.wantAt != m.version {
		cfg := m.iopts.Paths
		if cfg == (paths.Config{}) {
			cfg = paths.DefaultConfig
		}
		m.want, m.wantAt = digest{}, m.version
		for _, p := range paths.Enumerate(m.g, cfg) {
			m.want.add(pathHash(p), 1)
		}
	}
	if m.got != m.want {
		m.t.Fatalf("after %q: %d live records, a fresh build of the model graph %d, or as many others", after, m.got.n, m.want.n)
	}
	g := m.ix.Graph()
	if g.EdgeCount() != m.g.EdgeCount() {
		m.t.Fatalf("after %q: the index's graph has %d triples, the model's %d", after, g.EdgeCount(), m.g.EdgeCount())
	}
	for _, tr := range g.Triples() {
		if !m.seen[tr] {
			m.t.Fatalf("after %q: the index's graph has %v, the model's does not", after, tr)
		}
	}
}

// checkRebuilt checks that the compaction wrote the files Build writes
// for the index's graph under the model's budget: the same pages, and
// the same metadata but for the build time and the applied LSN.
func (m *writeModel) checkRebuilt(label string) {
	m.t.Helper()
	opts := m.iopts
	opts.WrapIO = nil // the model's fault injector stays the index's
	base := m.newBase()
	fresh, err := index.Build(base, m.ix.Graph().Clone(), opts)
	noErr(m.t, err)
	defer fresh.Close()
	for _, ext := range []string{".pages", ".meta"} {
		got, err := os.ReadFile(m.base + ext)
		noErr(m.t, err)
		want, err := os.ReadFile(base + ext)
		noErr(m.t, err)
		if ext == ".meta" {
			got, want = withoutStamps(m.t, got), withoutStamps(m.t, want)
		}
		if !bytes.Equal(got, want) {
			m.t.Fatalf("%s: the compacted %s differs from a fresh build's", label, ext)
		}
	}
}

// withoutStamps zeroes, in the bytes of an index's metadata, the two
// header varints a compaction and a fresh build of one graph differ in:
// the applied LSN, right after the 8-byte magic, and the build time,
// after the four counts that follow it.
func withoutStamps(t *testing.T, meta []byte) []byte {
	out, rest := slices.Clone(meta[:8]), meta[8:]
	for i := range 6 {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			t.Fatalf("metadata header varint %d does not decode", i)
		}
		if i == 0 || i == 5 {
			v = 0
		}
		out, rest = binary.AppendUvarint(out, v), rest[n:]
	}
	return append(out, rest...)
}

// runScript runs a scripted model: a hand-made graph, query pool and
// command sequence for a case the random runs reach rarely.
func runScript(t *testing.T, graph []rdf.Triple, opts Options, pool []*rdf.QueryGraph, cmds ...command) *writeModel {
	m := newWriteModel(t, opts, index.Options{})
	m.start(graph, pool)
	for _, c := range cmds {
		m.run(c)
	}
	return m
}

// The kinds of reconfirm decision decide tells apart.
const (
	decidedServed   = "served"   // the re-pick has the entry's cut
	decidedRefused  = "refused"  // the re-pick has another cut, or the layout moved
	decidedFallback = "fallback" // refused with an equal cut: a fallback-scan entry
	decidedStale    = "stale"    // refused with an equal cut: more tombstones than candidates
)

// decide hands q's memo entry, if a write left it stale, to reconfirm as
// buildCluster does, and checks the decision against retrieval and the
// pre-rank run from scratch in the same View — what re-confirmation did
// before it read the changes instead: serve the entry when the layout is
// its own and the re-picked cut is its cut. A served entry must be that,
// with the re-pick's Retrieved; a refused one must not be, unless it is
// a fallback-scan entry or one with more tombstones to read than it has
// candidates. It returns the decision's kind, "" when there was none.
func decide(t *testing.T, e *Engine, label string, q paths.Path) (kind string) {
	t.Helper()
	e.view(func(r backend) error {
		e.alignMemo.Renew(q.Key(), r.Epoch(), func(v any) (any, int, bool) {
			stale := v.(*cachedCluster)
			got, size, ok := e.reconfirm(r, q, stale)
			sc := new(clusterScratch)
			ids, _ := retrieve(r, sc, q)
			var cut []index.PathID
			if len(ids) > 0 {
				c, _, err := e.preRank(r, sc, ids, q)
				noErr(t, err)
				cut = slices.Clone(c)
				slices.Sort(cut)
			}
			same := stale.layout == r.Layout() && slices.Equal(cut, stale.cut)
			switch {
			case ok && !same:
				t.Fatalf("%s: served a cut of %d that re-picks as another of %d", label, len(stale.cut), len(cut))
			case ok && got.(*cachedCluster).retrieved != len(ids):
				t.Fatalf("%s: served with Retrieved %d, a re-pick retrieves %d", label, got.(*cachedCluster).retrieved, len(ids))
			case ok:
				kind = decidedServed
			case !same:
				kind = decidedRefused
			case stale.step == len(cascade(q)):
				kind = decidedFallback
			case r.Watermark().Tombs-stale.mark.Tombs > stale.retrieved:
				kind = decidedStale
			default:
				t.Fatalf("%s: refused a cut of %d (Retrieved %d, now %d) that re-picks equal",
					label, len(cut), stale.retrieved, len(ids))
			}
			return got, size, ok
		})
		return nil
	})
	return kind
}

// memoPair is the two engines the answers oracle compares, over one
// index.
type memoPair struct{ memo, plain *Engine }

func newMemoPair(ix *index.Index, opts Options) memoPair {
	p := memoPair{memo: New(ix, opts)}
	opts.AlignCacheMB = -1
	p.plain = New(ix, opts)
	return p
}

// check runs q on both engines — its clusters, then its top 10 — and
// fails on the first difference.
func (p memoPair) check(t *testing.T, label string, q *rdf.QueryGraph) {
	t.Helper()
	pre := p.memo.Preprocess(q)
	gotCs, err := p.memo.Cluster(pre)
	noErr(t, err)
	wantCs, err := p.plain.Cluster(pre)
	noErr(t, err)
	if g, w := clusterLines(gotCs), clusterLines(wantCs); g != w {
		t.Fatalf("%s: the memo engine's clusters differ:\n%s\nwithout the memo:\n%s", label, g, w)
	}
	got, err := p.memo.Query(q, 10)
	noErr(t, err)
	want, err := p.plain.Query(q, 10)
	noErr(t, err)
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers with the memo, %d without", label, len(got), len(want))
	}
	for i := range want {
		if g, w := fingerprint(got[i]), fingerprint(want[i]); g != w {
			t.Fatalf("%s: answer %d with the memo:\n  %s\nwithout:\n  %s", label, i, g, w)
		}
	}
}

// TestReconfirmFromChangesEqualsRepick runs one branch of reconfirm per
// case as a scripted model run: a query, the writes, the query again,
// whose decision on its stale entry must be want (and decide's).
func TestReconfirmFromChangesEqualsRepick(t *testing.T) {
	one := func(s, p, o string) rdf.Triple { return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)} }
	kinds := func(p string, n int) (ts []rdf.Triple) {
		for i := 1; i <= n; i++ {
			ts = append(ts, one(fmt.Sprintf("S%d", i), p, "Thing"))
		}
		return ts
	}
	insert := func(ts ...rdf.Triple) []command { return []command{{kind: cmdInsert, batch: ts}} }
	thing := []rdf.Triple{{S: vr("s"), P: iri("kind"), O: iri("Thing")}}
	for _, c := range []struct {
		name   string
		graph  []rdf.Triple
		cap    int
		query  []rdf.Triple
		writes []command
		want   string
	}{
		// Hub is inside every path, never a sink, so the label step found
		// the candidates; the insert gives the sink step one, which the
		// label step would rank after its cut.
		{"an earlier step gains a live path", []rdf.Triple{one("A1", "p", "Hub"), one("A2", "p", "Hub"),
			one("A3", "p", "Hub"), one("Hub", "q", "Y")}, 1, []rdf.Triple{{S: vr("v"), P: iri("p"), O: iri("Hub")}},
			insert(rdf.Triple{S: iri("B"), P: iri("p"), O: lit("Hub")}), decidedRefused},
		// Two candidates fill the budget of two (cap 1) exactly; they miss
		// the constant kind and the newcomer has it.
		{"a full cluster gains a better candidate", kinds("other", 2), 1, thing, insert(one("S3", "kind", "Thing")), decidedRefused},
		{"a full cluster gains a later candidate", kinds("kind", 2), 1, thing, insert(one("S3", "kind", "Thing")), decidedServed},
		{"an uncut cluster gains a candidate", kinds("kind", 2), 0, thing, insert(one("S3", "kind", "Thing")), decidedRefused},
		// Z makes S1 a root no more: its path, in the cut, is tombstoned.
		{"a cut member is tombstoned", kinds("kind", 3), 1, thing, insert(one("Z", "r", "S1")), decidedRefused},
		// Every candidate misses the constant kind; the newcomer has it.
		{"a newcomer ranks below the boundary", kinds("other", 3), 1, thing, insert(one("S4", "kind", "Thing")), decidedRefused},
		{"a newcomer ranks after the cut", kinds("kind", 3), 1, thing, insert(one("S4", "kind", "Thing")), decidedServed},
		// The cut's last candidate is one node short of the query path;
		// the newcomer, as long as it and missing the same constant, ranks
		// one bucket before it.
		{"a newcomer ranks one bucket below the boundary", kinds("kind", 3), 1,
			[]rdf.Triple{{S: vr("s"), P: iri("p"), O: vr("y")}, {S: vr("y"), P: iri("kind"), O: iri("Thing")}},
			insert(one("A", "q", "S4"), one("S4", "kind", "Thing")), decidedRefused},
		// S4's path is committed and tombstoned inside the window: it is no
		// candidate, and Z's path that replaces it ranks after the cut.
		{"a newcomer is tombstoned before the lookup", kinds("kind", 3), 1, thing,
			append(insert(one("S4", "kind", "Thing")), insert(one("Z", "r", "S4"))...), decidedServed},
		{"a compaction between build and lookup", kinds("kind", 2), 0, thing, []command{{kind: cmdCompact}}, decidedRefused},
		// Three roots become none; the cluster has two candidates.
		{"a very stale entry", append(kinds("kind", 2), one("R1", "x", "Y"), one("R2", "x", "Y"), one("R3", "x", "Y")),
			0, thing, insert(one("Z", "y", "R1"), one("Z", "y", "R2"), one("Z", "y", "R3")), decidedStale},
		// Re-inserting a triple changes no path but makes every entry stale.
		{"a fallback-scan entry", kinds("kind", 2), 0, []rdf.Triple{{S: vr("s"), P: vr("p"), O: vr("o")}},
			insert(one("S1", "kind", "Thing")), decidedFallback},
	} {
		t.Run(c.name, func(t *testing.T) {
			q, err := rdf.NewQueryGraphFromTriples(c.query)
			noErr(t, err)
			query := command{kind: cmdQuery, queries: []int{0}}
			m := runScript(t, c.graph, Options{MaxCandidatesPerCluster: c.cap}, []*rdf.QueryGraph{q},
				append(append([]command{query}, c.writes...), query)...)
			if !slices.Equal(m.decisions, []string{c.want}) {
				t.Errorf("decided %q, want %q", m.decisions, c.want)
			}
		})
	}
}

// TestAlignMemoExactUnderWrites holds the scripted model run the random
// ones do not reach: a compaction renumbers the IDs so that a changed
// path takes the ID a stale entry's cut names, and the cut re-derives
// equal as numbers. Only the layout tells the entry's items apart from
// the current records.
func TestAlignMemoExactUnderWrites(t *testing.T) {
	t.Run("renumbered", func(t *testing.T) {
		query := command{kind: cmdQuery, queries: []int{0}}
		// A and B stop being roots: their paths, 0 and 1, are tombstoned
		// and the new ones, C-s-A-s-X and D-s-B-s-Y, take IDs 2 and 3 —
		// until the compaction makes them 0 and 1, so X's cut is {0} again.
		m := runScript(t, []rdf.Triple{{S: iri("A"), P: iri("s"), O: iri("X")}, {S: iri("B"), P: iri("s"), O: iri("Y")}},
			Options{}, []*rdf.QueryGraph{oneTriple(vr("v"), iri("s"), iri("X"))}, query,
			command{kind: cmdInsert, batch: []rdf.Triple{{S: iri("C"), P: iri("s"), O: iri("A")}, {S: iri("D"), P: iri("s"), O: iri("B")}}},
			command{kind: cmdCompact})
		cs, err := m.pair.plain.Cluster(m.pres[0])
		noErr(t, err)
		if len(cs[0].Items) != 1 || cs[0].Items[0].ID != 0 || cs[0].Path(0).Length() != 3 {
			t.Fatalf("test setup: X's cluster after the compaction is\n%s\nwant C-s-A-s-X at ID 0", clusterLines(cs))
		}
		if m.run(query); !slices.Equal(m.decisions, []string{decidedRefused}) {
			t.Errorf("decided %q on the entry built before the insert, want %q", m.decisions, decidedRefused)
		}
	})
}
