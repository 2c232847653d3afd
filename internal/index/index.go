package index

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"

	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
	"sama/internal/textindex"
)

// PathID densely identifies one indexed path.
type PathID uint32

// Options configures index construction and opening.
type Options struct {
	// Paths bounds the path enumeration (zero value: paths.DefaultConfig);
	// see checkPathBudget for what Build takes. Only Build reads it:
	// the metadata records the budget, and an opened index inserts,
	// replays and compacts under the one it was built with.
	Paths paths.Config
	// PoolPages is the buffer pool capacity in pages (0: storage default).
	PoolPages int
	// Thesaurus enables semantic label expansion (nil: exact + token
	// matching only).
	Thesaurus *textindex.Thesaurus
	// WrapIO, when set, wraps the page file's I/O before the buffer
	// pool is created — the hook fault-injection tests use to interpose
	// a storage.FaultInjector between the pool and the disk. Compact
	// wraps the files it writes and reopens with it too.
	WrapIO func(storage.PageIO) storage.PageIO
	// CheckpointBytes triggers an automatic checkpoint after an insert
	// once the WAL reaches this size (0: DefaultCheckpointBytes;
	// negative: only explicit Checkpoint/Close checkpoint).
	CheckpointBytes int64
	// WALSyncHook interposes on the WAL's fsyncs (an append's commit,
	// a checkpoint's fresh header), like WrapIO does for page I/O — the
	// crash tests use it to snapshot the disk state mid-fsync.
	WALSyncHook func() error
}

func (o Options) checkpointBytes() int64 {
	if o.CheckpointBytes == 0 {
		return DefaultCheckpointBytes
	}
	return o.CheckpointBytes
}

func (o Options) pathConfig() paths.Config {
	if o.Paths == (paths.Config{}) {
		return paths.DefaultConfig
	}
	return o.Paths
}

// MaxPathLength is the largest path budget (paths.Config.MaxLength) an
// index takes: the most nodes n whose worst-case record — 2n−1 term IDs
// of five varint bytes each — fits one record slot, 5(2n−1) ≤
// storage.MaxRecord. Within it no path can fail its append, which would
// fail an insert after its batch was logged, and so every replay of the
// batch.
const MaxPathLength = (storage.MaxRecord + 5) / 10

// checkPathBudget refuses a path budget whose MaxLength lies outside
// [1, MaxPathLength] or whose MaxPerRoot is negative.
func checkPathBudget(c paths.Config) error {
	if c.MaxLength < 1 || c.MaxLength > MaxPathLength || c.MaxPerRoot < 0 {
		return fmt.Errorf("path budget %+v: MaxLength must lie in [1, %d] and MaxPerRoot not below 0", c, MaxPathLength)
	}
	return nil
}

// Stats describes a built index; the Table 1 experiment reports these
// per dataset.
type Stats struct {
	// Triples is the number of statements in the source graph.
	Triples int
	// HV is the number of hypergraph vertices: the data graph's nodes.
	HV int
	// HE is the number of hyperedges: the graph's binary edges plus one
	// hyperedge per stored path (Figure 5's representation).
	HE int
	// Paths is the number of indexed source-to-sink paths.
	Paths int
	// BuildTime is the wall-clock indexing duration, path walk included.
	BuildTime time.Duration
	// DiskBytes is the on-disk footprint (pages file + metadata file).
	DiskBytes int64
}

// Index is the opened, queryable path index. It is safe for concurrent
// use: a query's cluster phase reads one consistent state through the
// Reader of one View, which holds the read lock for the whole phase.
// The writers — InsertTriples, Compact, Checkpoint and
// Close — run one at a time under the writer lock, and each takes
// the write lock, which waits for open Views, only to mutate (page I/O
// is additionally serialised by the buffer pool's own lock).
type Index struct {
	// wmu is the writer lock, taken before mu and held for a writer's
	// whole call: an insert's WAL append and apply, a checkpoint, a
	// whole compaction, Close. Records are therefore applied in LSN
	// order, and no append is in flight during a checkpoint or a swap.
	// Queries never take it, so they never wait for an fsync.
	wmu  sync.Mutex
	mu   sync.RWMutex
	base string
	file *storage.PageFile
	pool *storage.BufferPool
	// store holds every path's record under its path ID.
	store *storage.RecordStore
	// lens caches each path's node count so the engine can pre-rank
	// candidates without touching disk.
	lens []uint16
	// sigs caches each path's 64-bit label fingerprint (see
	// signature.go), parallel to lens; the engine's pre-rank consults
	// (lens, sigs) pairs through Summaries and never probes postings.
	sigs []uint64
	// sinks matches query sinks against path sinks; labels matches any
	// constant label against the paths containing it.
	sinks  *textindex.Index
	labels *textindex.Index
	// labelLists[id] are the labels postings term id's label is added to,
	// resolved at the term's first commit (nil before): commitPath adds
	// through them instead of looking each key up by string. They belong
	// to labels, and are dropped with it.
	labelLists [][]*textindex.Postings
	// sources maps a source term's dictionary ID to the paths starting
	// there, tombstoned included, ascending: an insert reads the paths of
	// the roots it affects through it.
	sources map[uint32][]PathID
	// deleted tombstones paths invalidated by incremental updates; the
	// record store is append-only, so their bytes stay until a rebuild.
	deleted []bool
	// tombs logs, in order, the IDs inserts tombstoned in this layout (see
	// Watermark). It is not persisted: a reopened index starts a log of
	// its own, and no memo outlives the Index it was built over.
	tombs []PathID
	// epoch counts the mutations applied to this index: InsertTriples
	// and Compact bump it under ix.mu, at commit. Caches key their
	// entries by the epoch they were computed at and treat them as stale
	// on mismatch, so a cache hit can never surface answers that predate
	// a write (or PathIDs that Compact renumbered) unless the cache
	// re-confirmed them against the current state.
	epoch uint64
	// layout counts the renumberings of PathIDs: the compaction swap bumps
	// it, and so does a hub-rooted insert, which re-indexes every path
	// under a new ID. Within one layout an ID names one record for good —
	// the record store is append-only and an insert keeps the ID of a path
	// it re-enumerates unchanged — so a value computed from the records of
	// some IDs can outlive an epoch, but not a layout. Each bump empties
	// the tombstone log.
	layout uint64
	// dict interns the terms of the data graph, and so of every stored
	// path: a record is a varint sequence of its IDs (see appendRecord),
	// and the graph keeps its terms in them (see idGraph). It is
	// persisted in the metadata file, so it always covers the records
	// that file's directory names. Like every dictionary write, interning
	// happens under the write lock or before the index is shared.
	dict *Dictionary
	// graph is the indexed data graph in term IDs (see idGraph), which
	// InsertTriples re-enumerates the affected paths of: Build interns the
	// triples it indexes into it, and the metadata carries it for Open.
	graph *idGraph
	// opts is what the index was built or opened with, Paths the budget
	// the metadata records: the compaction swap and its roll-forward
	// reopen the files with them.
	opts  Options
	stats Stats
	// Write path state: wal is the log at walPath(base), applied the
	// LSN of the last record applied — every one below it is too, and
	// under the writer lock it is the log's last LSN, so a checkpoint
	// discards the whole log — durable the watermark the metadata file
	// holds (Close checkpoints only when applied is past it), and
	// recovery is what Open replayed. lock holds <base>.lock (see
	// lockBase) until Close, which sets it nil.
	wal      *storage.WAL
	lock     *os.File
	applied  uint64
	durable  uint64
	recovery RecoveryStats
	// Observability counters, wired by SetMetrics; nil-safe no-ops
	// until then (obs handles are nil-safe by contract).
	mSinkLookups  *obs.Counter
	mLabelLookups *obs.Counter
	mPathReads    *obs.Counter
}

// SetMetrics registers the index's instrumentation in reg: lookup and
// path-read counters plus scrape-time gauges for the path count and
// on-disk footprint. Call it once, before the index starts serving
// queries (the counter fields are written without the index lock).
func (ix *Index) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ix.mSinkLookups = reg.Counter("sama_index_lookups_total",
		"Path index lookups by kind.", "kind", "sink")
	ix.mLabelLookups = reg.Counter("sama_index_lookups_total",
		"Path index lookups by kind.", "kind", "label")
	ix.mPathReads = reg.Counter("sama_index_path_reads_total",
		"Paths materialised from disk (through the buffer pool).")
	reg.GaugeFunc("sama_index_paths",
		"Indexed paths, tombstoned included.",
		func() float64 { return float64(ix.NumPaths()) })
	reg.GaugeFunc("sama_index_disk_bytes",
		"On-disk footprint of the index files.",
		func() float64 {
			ix.mu.RLock()
			defer ix.mu.RUnlock()
			return float64(ix.diskBytes())
		})
}

// wrap applies the configured I/O wrapper to the page file.
func wrapPageIO(file *storage.PageFile, wrap func(storage.PageIO) storage.PageIO) storage.PageIO {
	if wrap == nil {
		return file
	}
	return wrap(file)
}

func pagesPath(base string) string { return base + ".pages" }
func metaPath(base string) string  { return base + ".meta" }
func walPath(base string) string   { return base + ".wal" }

// lockBase takes an exclusive, non-blocking flock on <base>.lock, which
// keeps a second handle — in this process or another — off an open
// index: its checkpoint would rewrite the log under the first's appends.
// The file is never renamed, so the lock holds across checkpoints and
// the compaction swap. created reports that the call made the file, which
// a failed Open removes again; a file removed that way between this
// call's open and its flock is not the one the path names, so the call
// locks the path's file afresh.
func lockBase(base string) (f *os.File, created bool, err error) {
	path := base + ".lock"
	for {
		_, statErr := os.Stat(path)
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644); err != nil {
			return nil, false, err
		}
		if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("index: %s is already open: %w", base, err)
		}
		held, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, false, err
		}
		if named, err := os.Stat(path); err == nil && os.SameFile(held, named) {
			return f, os.IsNotExist(statErr), nil
		}
		f.Close()
	}
}

// Build is BuildFrom over g's edges in edge order: it indexes the graph
// of g's triples, so a node added by AddNode alone, with no edge, is not
// held (no caller in this module adds one).
func Build(base string, g *rdf.Graph, opts Options) (*Index, error) {
	e := 0
	return build(base, g.NodeCount(), g.EdgeCount(), func() (rdf.Triple, error) {
		if e == g.EdgeCount() {
			return rdf.Triple{}, io.EOF
		}
		x := g.Edge(rdf.EdgeID(e))
		e++
		return rdf.Triple{S: g.Term(x.From), P: x.Label, O: g.Term(x.To)}, nil
	}, opts)
}

// BuildFrom indexes the triples next returns (see rdf.Each) into files
// at base (base.pages and base.meta), returning the opened index, and
// restarts the log at base.wal. It interns the whole stream before it
// touches base: an index already there is overwritten only by a stream
// that does not fail.
func BuildFrom(base string, next func() (rdf.Triple, error), opts Options) (*Index, error) {
	return build(base, 0, 0, next, opts)
}

// build is BuildFrom with room for n nodes and m edges made up front.
func build(base string, n, m int, next func() (rdf.Triple, error), opts Options) (*Index, error) {
	start := time.Now()
	opts.Paths = opts.pathConfig()
	if err := checkPathBudget(opts.Paths); err != nil {
		return nil, fmt.Errorf("index: build %s: %w", base, err)
	}
	g, d := newIDGraph(n, m)
	if err := rdf.Each(next, func(t rdf.Triple) { g.addTriple(d, t) }); err != nil {
		return nil, fmt.Errorf("index: build %s: %w", base, err)
	}
	d = g.renumber(d)
	lock, _, err := lockBase(base)
	if err != nil {
		return nil, err
	}
	wal, err := storage.OpenWAL(walPath(base), storage.WALOptions{SyncHook: opts.WALSyncHook})
	if err != nil {
		lock.Close()
		return nil, err
	}
	// A fresh build restarts history: any older log describes an index
	// these files replace.
	err = wal.Reset(1)
	var ix *Index
	if err == nil {
		ix, err = writeIndex(base, g, d, opts, func(ix *Index) (int, error) { return ix.streamPaths(context.TODO()) },
			func(ix *Index) { ix.stats.BuildTime = time.Since(start) })
	}
	if err != nil {
		wal.Close()
		lock.Close()
		return nil, err
	}
	ix.wal, ix.lock = wal, lock
	return ix, nil
}

// writeIndex writes the files at base that index the paths of g, in the
// IDs of d, within opts.Paths: it creates the pages file, registers the
// paths through fill, lets stamp set what the metadata carries beyond
// them (the build time, the applied LSN), flushes the pages and writes
// the metadata. It returns the index open on the files, with no lock or
// log. Build and Compact both write through it, so a compacted index is
// the one a fresh build of its graph gives.
func writeIndex(base string, g *idGraph, d *Dictionary, opts Options, fill func(*Index) (int, error), stamp func(*Index)) (*Index, error) {
	file, err := storage.CreatePageFile(pagesPath(base))
	if err != nil {
		return nil, err
	}
	ix := &Index{
		base:    base,
		file:    file,
		pool:    storage.NewBufferPool(wrapPageIO(file, opts.WrapIO), opts.PoolPages),
		sinks:   textindex.New(opts.Thesaurus),
		labels:  textindex.New(opts.Thesaurus),
		sources: make(map[uint32][]PathID),
		opts:    opts,
		dict:    d,
		graph:   g,
	}
	ix.store = storage.NewRecordStore(ix.pool, nil, 0)
	n, err := fill(ix)
	if err == nil {
		ix.stats = Stats{Triples: len(g.from), HV: len(g.nodeTerm), HE: len(g.from) + n, Paths: n}
		stamp(ix)
		if err = ix.pool.Flush(); err == nil {
			err = ix.writeMeta()
		}
	}
	if err != nil {
		file.Close()
		return nil, err
	}
	ix.stats.DiskBytes = ix.diskBytes()
	return ix, nil
}

// streamPaths is Build's fill, stopped by ctx: it appends and commits
// every path the graph's roots start.
func (ix *Index) streamPaths(ctx context.Context) (int, error) {
	n := 0
	err := ix.walkPaths(ctx, ix.graph.roots(), func(ids []uint32, rec []byte) error {
		if _, err := ix.store.Append(rec); err != nil {
			return err
		}
		ix.commitPath(ids)
		n++
		return nil
	})
	return n, err
}

// walkPaths is the one route from the graph to records: it streams the
// paths of the graph from roots (see paths.Stream), stopped by ctx, and
// calls fn with each path's term IDs — the nodes, then the edges, as the
// graph holds them — and its record, both valid until fn returns. Build,
// Compact and every insert register paths through it.
func (ix *Index) walkPaths(ctx context.Context, roots []rdf.NodeID, fn func(ids []uint32, rec []byte) error) error {
	g := ix.graph
	var ids []uint32
	var rec []byte
	return paths.Stream(g, roots, ix.opts.Paths, func(nodes []rdf.NodeID, edges []rdf.EdgeID) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ids = ids[:0]
		for _, v := range nodes {
			ids = append(ids, g.nodeTerm[v])
		}
		for _, e := range edges {
			ids = append(ids, g.label[e])
		}
		rec = appendRecord(rec[:0], ids)
		return fn(ids, rec)
	})
}

// commitPath registers an already-appended path, given as its term IDs
// (see walkPaths), in the in-memory tables. Pure memory: it cannot fail,
// which is what lets the insert path stage every disk append first and
// commit atomically after. It is the one line every registration route
// — build (and so compaction), insert, WAL replay — maintains the
// summaries and postings through, reading each label's analysed form
// from the dictionary and its label postings through labelLists. Its
// path ID is the next one, which is the ID the record store handed its
// record.
func (ix *Index) commitPath(ids []uint32) {
	id := uint32(len(ix.lens))
	ix.deleted = append(ix.deleted, false)
	n := (len(ids) + 1) / 2 // nodes; the other n−1 are the edges
	ix.lens = append(ix.lens, uint16(n))
	ix.sinks.AddAnalysed(ix.dict.analysedTerm(ids[n-1]), id)
	ix.sources[ids[0]] = append(ix.sources[ids[0]], PathID(id))
	var sig uint64
	for _, term := range ids {
		if int(term) >= len(ix.labelLists) {
			ix.labelLists = append(ix.labelLists, make([][]*textindex.Postings, int(term)+1-len(ix.labelLists))...)
		}
		a := ix.dict.analysedTerm(term)
		if ix.labelLists[term] == nil {
			ix.labelLists[term] = ix.labels.Lists(a)
		}
		sig |= a.Sig
		ix.labels.AddTo(ix.labelLists[term], id)
	}
	ix.sigs = append(ix.sigs, sig)
}

// Open loads an index previously written by Build. The pages stay on
// disk (reads go through a fresh, cold buffer pool); the lookup tables
// and the data graph are loaded into memory. The log at base.wal is
// scanned — a torn tail is truncated, never replayed — the records
// after the applied watermark are applied in LSN order, and a
// checkpoint makes them durable; if any of that fails, so does Open.
// Temporary files from a crashed compaction are resolved first: a swap
// that reached its commit point is completed, anything earlier is
// discarded.
func Open(base string, opts Options) (*Index, error) {
	lock, created, err := lockBase(base)
	if err != nil {
		return nil, err
	}
	recoverCompactSwap(base)
	ix, err := openIndex(base, opts)
	if err == nil {
		if err = ix.openWAL(); err == nil {
			ix.lock = lock
			return ix, nil
		}
		ix.file.Close()
		err = fmt.Errorf("index: open %s: %w", base, err)
	}
	if created {
		// Removed under the flock, so no other handle holds this file.
		os.Remove(base + ".lock")
	}
	lock.Close()
	return nil, err
}

// recoverCompactSwap resolves <base>.compact.* leftovers from a
// compaction interrupted by a crash. The swap renames the new pages
// file into place first and the new metadata second; the pages rename
// is the commit point. So: new meta present but new pages gone means
// the pages were swapped and only the meta rename was lost — finish
// it. Anything else predates the commit point, and the original files
// are still the authority — discard the temporaries.
func recoverCompactSwap(base string) {
	tmp := base + ".compact"
	os.Remove(metaPath(tmp) + ".tmp")
	_, metaErr := os.Stat(metaPath(tmp))
	_, pagesErr := os.Stat(pagesPath(tmp))
	if metaErr == nil && os.IsNotExist(pagesErr) {
		if os.Rename(metaPath(tmp), metaPath(base)) == nil {
			syncDirOf(metaPath(base))
		}
		return
	}
	os.Remove(pagesPath(tmp))
	os.Remove(metaPath(tmp))
}

// openIndex is Open minus the lock, the crash-leftover cleanup and the
// log: Compact reopens the swapped files through it, because the
// index's lock and log stay valid across the swap. The path budget is
// the metadata's, whatever opts.Paths says.
func openIndex(base string, opts Options) (*Index, error) {
	file, err := storage.OpenPageFile(pagesPath(base))
	if err != nil {
		return nil, err
	}
	ix := &Index{
		base: base,
		file: file,
		pool: storage.NewBufferPool(wrapPageIO(file, opts.WrapIO), opts.PoolPages),
		opts: opts,
	}
	if err := ix.readMeta(); err != nil {
		file.Close()
		return nil, fmt.Errorf("index: open %s: %w", base, err)
	}
	ix.stats.DiskBytes = ix.diskBytes()
	return ix, nil
}

// metaMagic is the metadata format ("SAMAIDXE"), the only one readMeta
// accepts: the last byte is the version, and an index written under
// another one has to be rebuilt from its data.
var metaMagic = [8]byte{'S', 'A', 'M', 'A', 'I', 'D', 'X', 'E'}

// writeMeta persists the metadata atomically: the bytes go to a temp
// file (in 64 KiB writes), are fsynced, and replace the old metadata
// with a rename — a crash mid-write leaves the previous (consistent)
// metadata in place, never a truncated one.
func (ix *Index) writeMeta() error {
	tmpPath := metaPath(ix.base) + ".tmp"
	f, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	err = ix.encodeMeta(bufio.NewWriterSize(f, 1<<16))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpPath, metaPath(ix.base))
	}
	if err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := syncDirOf(metaPath(ix.base)); err != nil {
		return err
	}
	ix.durable = ix.applied
	return nil
}

// encodeMeta writes the metadata to w and flushes it. The applied LSN
// watermark comes first, so a reopen knows where replay starts, and the
// path budget follows the stats, so the reopen enumerates as the build
// did. The dictionary and the data graph ride in the same file, behind
// the same rename, as the record store's directory, which names the
// pages of the records the dictionary decodes: no crash can pair one
// checkpoint's records with another's dictionary, or the paths of one
// graph with another graph.
func (ix *Index) encodeMeta(w *bufio.Writer) error {
	g := ix.graph
	// A bufio.Writer keeps its first error and reports it from Flush, so
	// the writes below need no checks of their own.
	var tmp [binary.MaxVarintLen64]byte
	wu := func(v uint64) { w.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	w.Write(metaMagic[:])
	wu(ix.applied)
	for _, v := range []uint64{
		uint64(ix.stats.Triples), uint64(ix.stats.HV), uint64(ix.stats.HE),
		uint64(ix.stats.Paths), uint64(ix.stats.BuildTime),
		uint64(ix.opts.Paths.MaxLength), uint64(ix.opts.Paths.MaxPerRoot),
	} {
		wu(v)
	}
	wu(uint64(len(ix.lens)))
	// The directory: each run's page and first path ID, as deltas from
	// the previous run's.
	dir := ix.store.Directory()
	wu(uint64(len(dir)))
	var last storage.Run
	for _, r := range dir {
		wu(uint64(r.Page - last.Page))
		wu(uint64(r.First - last.First))
		last = r
	}
	for _, l := range ix.lens {
		wu(uint64(l))
	}
	// Tombstone bitmap, one byte per 8 paths.
	bitmap := make([]byte, (len(ix.deleted)+7)/8)
	for i, del := range ix.deleted {
		if del {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	w.Write(bitmap)
	ix.sinks.WriteTo(w)
	ix.labels.WriteTo(w)
	ix.dict.WriteTo(w)
	// Source postings: per source term, ascending, its ID's delta from
	// the previous one, its path count and the path IDs' deltas.
	terms := make([]uint32, 0, len(ix.sources))
	for term := range ix.sources {
		terms = append(terms, term)
	}
	slices.Sort(terms)
	wu(uint64(len(terms)))
	prev := uint32(0)
	for _, term := range terms {
		wu(uint64(term - prev))
		prev = term
		wu(uint64(len(ix.sources[term])))
		last := PathID(0)
		for _, id := range ix.sources[term] {
			wu(uint64(id - last))
			last = id
		}
	}
	// The graph: every node's term in node-ID order, then every edge as
	// (from, label, to) in edge-ID order, so a reopen has the same IDs.
	wu(uint64(len(g.nodeTerm)))
	for _, id := range g.nodeTerm {
		wu(uint64(id))
	}
	wu(uint64(len(g.label)))
	for e, id := range g.label {
		wu(uint64(g.from[e]))
		wu(uint64(id))
		wu(uint64(g.to[e]))
	}
	return w.Flush()
}

// syncDirOf fsyncs the directory containing path, making a rename into
// it durable.
func syncDirOf(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (ix *Index) readMeta() error {
	f, err := os.Open(metaPath(ix.base))
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	return ix.decodeMeta(bufio.NewReader(f), fi.Size(), ix.file.NumPages())
}

// decodeMeta reads metadata written by encodeMeta from a source of at
// most limit bytes, for a pages file of the given page count: every
// count is checked against what that many bytes can hold before it sizes
// an allocation, as ReadDictionary does, and every ID against what it
// names. The postings are read with ix.opts.Thesaurus, ix.opts.Paths is
// set to the recorded budget, and ix.store opened over ix.pool.
func (ix *Index) decodeMeta(r *bufio.Reader, limit int64, pages int) error {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return err
	}
	if magic != metaMagic {
		if [7]byte(magic[:7]) == [7]byte(metaMagic[:7]) {
			return fmt.Errorf("metadata format version %q is not supported (this build reads version %q): rebuild the index from its data",
				magic[7], metaMagic[7])
		}
		return fmt.Errorf("bad meta magic %q", magic)
	}
	m := &metaReader{r: r, limit: limit}
	ix.applied = m.uvarint()
	ix.durable = ix.applied
	ix.stats = Stats{
		Triples:   int(m.uvarint()),
		HV:        int(m.uvarint()),
		HE:        int(m.uvarint()),
		Paths:     int(m.uvarint()),
		BuildTime: time.Duration(m.uvarint()),
	}
	ix.opts.Paths = paths.Config{MaxLength: int(m.uvarint()), MaxPerRoot: int(m.uvarint())}
	if err := checkPathBudget(ix.opts.Paths); err != nil {
		m.fail("%v", err)
	}
	// A path takes at least one byte: its length.
	n := m.count(1, "path")
	ix.store = storage.NewRecordStore(ix.pool, m.directory(n, pages), uint32(n))
	ix.lens = make([]uint16, n)
	for i := range ix.lens {
		ix.lens[i] = uint16(m.uvarint())
	}
	bitmap := make([]byte, (n+7)/8)
	m.read(bitmap)
	ix.deleted = make([]bool, n)
	for i := range ix.deleted {
		ix.deleted[i] = bitmap[i/8]&(1<<(i%8)) != 0
	}
	if m.err != nil {
		return m.err
	}
	var err error
	if ix.sinks, err = textindex.ReadFrom(r, ix.opts.Thesaurus, limit); err != nil {
		return err
	}
	if ix.labels, err = textindex.ReadFrom(r, ix.opts.Thesaurus, limit); err != nil {
		return err
	}
	if ix.sigs, err = ix.labels.KeySignatures(n); err != nil {
		return fmt.Errorf("label postings: %w", err)
	} else if id := slices.Index(ix.sigs, 0); id >= 0 {
		return fmt.Errorf("label postings hold no key of path %d", id)
	}
	if ix.dict, err = ReadDictionary(r, limit); err != nil {
		return err
	}
	ix.sources = m.sources(n, ix.dict)
	ix.graph = m.graph(ix.dict)
	return m.err
}

// metaReader reads the varint sections of the metadata. It keeps the
// first error, after which every read yields zero: a section's loop
// runs to its (checked) count without checks of its own, and the error
// is reported once, at the end.
type metaReader struct {
	r     *bufio.Reader
	limit int64
	err   error
}

func (m *metaReader) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

// uvarint reads a varint as binary.ReadUvarint does, but refuses a
// spelling longer than binary.AppendUvarint's: the metadata a reader
// accepts is the metadata its tables encode to.
func (m *metaReader) uvarint() uint64 {
	var x uint64
	for i := 0; m.err == nil; i++ {
		var b byte
		if b, m.err = m.r.ReadByte(); m.err != nil {
			break
		}
		if i > 0 && b == 0 || i == binary.MaxVarintLen64-1 && b > 1 {
			m.fail("overlong varint")
			break
		}
		x |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return x
		}
	}
	return 0
}

// str reads a length-prefixed string and returns it after prefix.
func (m *metaReader) str(prefix string) string {
	l := m.uvarint()
	if l > uint64(m.limit) {
		m.fail("string length %d beyond the %d bytes", l, m.limit)
	}
	if m.err != nil {
		return ""
	}
	b := make([]byte, len(prefix)+int(l))
	m.read(b[copy(b, prefix):])
	return string(b)
}

func (m *metaReader) read(b []byte) {
	if m.err == nil {
		_, m.err = io.ReadFull(m.r, b)
	}
}

// count reads the count of a section whose items each take at least
// size bytes, failing it if the metadata cannot hold that many.
func (m *metaReader) count(size uint64, what string) int {
	n := m.uvarint()
	if n > uint64(m.limit)/size {
		m.fail("implausible %s count %d in %d bytes", what, n, m.limit)
		return 0
	}
	return int(n)
}

// id reads the next of a strictly ascending run of delta-coded IDs below
// bound, given the previous one (first: there is none).
func (m *metaReader) id(prev uint64, first bool, bound int, what string) uint64 {
	d := m.uvarint()
	if (d == 0 && !first) || d >= uint64(bound) || prev+d >= uint64(bound) {
		m.fail("%s %d+%d out of order or out of range (%d)", what, prev, d, bound)
		return 0
	}
	return prev + d
}

// term reads a dictionary ID and returns it. The ID is compared as
// read: narrowed first, ID 2³²+3 would read as term 3.
func (m *metaReader) term(d *Dictionary) uint32 {
	id := m.uvarint()
	if id >= uint64(d.Len()) {
		m.fail("dictionary id %d out of range (%d terms)", id, d.Len())
		return 0
	}
	return uint32(id)
}

// directory reads the record store's runs written by encodeMeta, for n
// paths in a pages file of the given page count: the first at ID 0,
// each above the last in page and in first ID, every page inside the
// file past its header page and every first ID below n.
func (m *metaReader) directory(n, pages int) []storage.Run {
	dir := make([]storage.Run, m.count(2, "directory run"))
	var page, first uint64
	for i := range dir {
		page, first = m.id(page, i == 0, pages, "directory page"), m.id(first, i == 0, n, "directory run")
		dir[i] = storage.Run{Page: storage.PageID(page), First: uint32(first)}
	}
	if (len(dir) == 0) != (n == 0) || len(dir) > 0 && (dir[0].Page == 0 || dir[0].First != 0) {
		m.fail("%d directory runs for %d paths: want a first at ID 0 past the header page exactly when there are paths", len(dir), n)
	}
	return dir
}

// sources reads the source postings written by encodeMeta.
func (m *metaReader) sources(npaths int, d *Dictionary) map[uint32][]PathID {
	k := m.count(2, "source")
	sources := make(map[uint32][]PathID, k)
	term := uint64(0)
	for i := 0; i < k && m.err == nil; i++ {
		term = m.id(term, i == 0, d.Len(), "source term")
		ids := make([]PathID, m.count(1, "source path"))
		if len(ids) == 0 {
			m.fail("source term %d starts no path", term)
		}
		id := uint64(0)
		for j := range ids {
			id = m.id(id, j == 0, npaths, "source path")
			ids[j] = PathID(id)
		}
		sources[uint32(term)] = ids
	}
	return sources
}

// graph reads the data graph written by encodeMeta straight into the
// columns, with the node and edge IDs it was written with.
func (m *metaReader) graph(d *Dictionary) *idGraph {
	nodes := m.count(1, "node")
	g := &idGraph{nodeTerm: make([]uint32, 0, nodes), out: make([][]rdf.EdgeID, nodes), in: make([][]rdf.EdgeID, nodes),
		node: make(map[uint32]rdf.NodeID, nodes)}
	for i := 0; i < nodes && m.err == nil; i++ {
		t := m.term(d)
		if _, dup := g.node[t]; dup && m.err == nil {
			m.fail("graph node %d (%s) repeats an earlier one", i, d.terms[t])
		}
		g.node[t], g.nodeTerm = rdf.NodeID(i), append(g.nodeTerm, t)
	}
	edges := m.count(3, "edge")
	for i := 0; i < edges && m.err == nil; i++ {
		from, label, to := m.uvarint(), m.term(d), m.uvarint()
		if from >= uint64(nodes) || to >= uint64(nodes) {
			m.fail("graph edge %d joins nodes %d and %d of %d", i, from, to, nodes)
		}
		if m.err == nil && !g.addEdge(rdf.NodeID(from), rdf.NodeID(to), label) {
			m.fail("graph edge %d repeats an earlier one", i)
		}
	}
	return g
}

func (ix *Index) diskBytes() int64 {
	total := ix.file.Size()
	if fi, err := os.Stat(metaPath(ix.base)); err == nil {
		total += fi.Size()
	}
	return total
}

// View runs fn with the read lock held for the whole call, so every
// read fn makes through its Reader sees one index state: inserts, the
// compaction swap, checkpoints and Close wait until fn returns. Nothing
// fn calls may call a locking *Index method: Go read locks do not
// nest, and a writer queued between the two acquisitions would
// deadlock both.
func (ix *Index) View(fn func(Reader) error) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return fn(Reader{ix})
}

// Reader reads the state one View holds still. Its methods take no
// lock, so a Reader is valid only inside its View's callback.
type Reader struct{ ix *Index }

// locked runs one Reader call under the read lock: the locking
// accessors on *Index are each one such call.
func locked[T any](ix *Index, read func(Reader) T) T {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return read(Reader{ix})
}

// NumPaths returns the number of indexed paths, tombstoned included
// (IDs run from 0 to NumPaths-1; check Live before reading).
func (r Reader) NumPaths() int { return len(r.ix.lens) }

// NumPaths is Reader.NumPaths under its own read lock.
func (ix *Index) NumPaths() int { return locked(ix, Reader.NumPaths) }

// Live reports whether the path ID refers to a non-tombstoned path.
func (r Reader) Live(id PathID) bool { return int(id) < len(r.ix.deleted) && !r.ix.deleted[id] }

// Live is Reader.Live under its own read lock.
func (ix *Index) Live(id PathID) bool {
	return locked(ix, func(r Reader) bool { return r.Live(id) })
}

// checkLive rejects an ID that is out of range or tombstoned. The
// caller holds ix.mu.
func (ix *Index) checkLive(id PathID) error {
	if !(Reader{ix}).Live(id) {
		return fmt.Errorf("index: path %d is out of range (%d paths) or tombstoned", id, len(ix.lens))
	}
	return nil
}

// Stats returns the build statistics.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.stats
}

// Epoch returns the index's mutation counter (see the epoch field). It
// is the same for every read of one View, so a result computed inside
// the View is stored against it: a write after the View bumps the
// epoch, which marks the stored entry stale.
func (r Reader) Epoch() uint64 { return r.ix.epoch }

// Epoch is Reader.Epoch under its own read lock.
func (ix *Index) Epoch() uint64 { return locked(ix, Reader.Epoch) }

// Layout returns the index's renumbering counter (see the layout
// field): while it holds, every ID reads the record, summary and
// postings it was committed with, tombstoned or not.
func (r Reader) Layout() uint64 { return r.ix.layout }

// Scratch is the memory the retrieval calls of one cluster build work
// in: posting runs and their union, the live-ID list and the summaries.
// The zero value is ready. The *Into methods return slices that alias
// it, valid until its next use by the same method.
type Scratch struct {
	tx   textindex.Scratch
	ids  []PathID
	sums []PathSummary
}

// PathsBySinkInto returns the IDs of the live paths whose sink matches
// the label (exact, token, and thesaurus expansion), in sc.
func (r Reader) PathsBySinkInto(sc *Scratch, label string) []PathID {
	r.ix.mSinkLookups.Inc()
	sc.ids = r.ix.appendLive(sc.ids[:0], r.ix.sinks.LookupScratch(&sc.tx, label))
	return sc.ids
}

// PathsBySink is Reader.PathsBySinkInto under its own read lock; the
// caller owns the result.
func (ix *Index) PathsBySink(label string) []PathID {
	return locked(ix, func(r Reader) []PathID { return r.PathsBySinkInto(new(Scratch), label) })
}

// PathsByLabelInto returns the IDs of the live paths containing an
// element whose label matches (exact, token, and thesaurus expansion),
// in sc.
func (r Reader) PathsByLabelInto(sc *Scratch, label string) []PathID {
	r.ix.mLabelLookups.Inc()
	sc.ids = r.ix.appendLive(sc.ids[:0], r.ix.labels.LookupScratch(&sc.tx, label))
	return sc.ids
}

// PathsByLabel is Reader.PathsByLabelInto under its own read lock; the
// caller owns the result.
func (ix *Index) PathsByLabel(label string) []PathID {
	return locked(ix, func(r Reader) []PathID { return r.PathsByLabelInto(new(Scratch), label) })
}

// appendLive appends the postings to dst as path IDs, filtering
// tombstoned paths.
func (ix *Index) appendLive(dst []PathID, ps []uint32) []PathID {
	dst = slices.Grow(dst, len(ps))
	for _, p := range ps {
		if !ix.deleted[p] {
			dst = append(dst, PathID(p))
		}
	}
	return dst
}

// records reads the records of the given live paths, counted as path
// reads, in one storage.Read: the index's one way from page to record,
// run under the caller's lock. Results are positional, and on a
// cancelled ctx the records not read are nil beside the context error
// (see storage.Read); the Reads result is the read's page work. An
// out-of-range or tombstoned ID, or a record that fails to read, fails
// the whole call with an error naming the path.
func (ix *Index) records(ctx context.Context, ids []PathID) ([][]byte, storage.Reads, error) {
	sids := make([]uint32, len(ids))
	for i, id := range ids {
		if err := ix.checkLive(id); err != nil {
			return nil, storage.Reads{}, err
		}
		sids[i] = uint32(id)
	}
	recs, reads, err := ix.store.Read(ctx, sids)
	if recs == nil {
		var re *storage.RecordError
		if errors.As(err, &re) {
			return nil, reads, fmt.Errorf("index: read path %d: %w", ids[re.Index], re.Err)
		}
		return nil, reads, fmt.Errorf("index: read paths: %w", err)
	}
	read := 0
	for _, rec := range recs {
		if rec != nil {
			read++
		}
	}
	ix.mPathReads.Add(uint64(read))
	return recs, reads, err
}

// ReadPathsBatched reads the records of the given path IDs in one
// page-locality read (see records) and returns each one's term-ID run —
// the dictionary IDs of its nodes, then its edges, which Terms decodes —
// and the read's page work: the pages it visited and the misses among
// them. The runs are cut from one slice; no term is decoded.
//
// Results are positional: runs[i] is that of ids[i]. If ctx is
// cancelled mid-read the context error is returned alongside partial
// results — runs not yet read are left nil, which is distinguishable
// because an indexed path always has at least one node. An
// out-of-range or tombstoned ID fails the whole batch.
func (r Reader) ReadPathsBatched(ctx context.Context, ids []PathID) (runs [][]uint32, reads storage.Reads, err error) {
	recs, reads, err := r.ix.records(ctx, ids)
	if recs == nil {
		return nil, reads, err
	}
	total := 0
	for i, rec := range recs {
		if rec == nil { // not read: cancelled mid-read
			continue
		}
		n, herr := recordNodes(rec)
		if herr != nil {
			return nil, reads, fmt.Errorf("index: decode path %d: %w", ids[i], herr)
		}
		total += 2*n - 1
	}
	idRun := make([]uint32, total)
	runs = make([][]uint32, len(ids))
	for i, rec := range recs {
		if rec == nil {
			continue
		}
		n, _ := recordNodes(rec)
		m := 2*n - 1
		if derr := r.ix.dict.decodeRecord(rec, n, nil, idRun[:m:m]); derr != nil {
			return nil, reads, fmt.Errorf("index: decode path %d: %w", ids[i], derr)
		}
		runs[i], idRun = idRun[:m:m], idRun[m:]
	}
	return runs, reads, err
}

// ReadPathsBatched is Reader.ReadPathsBatched under its own read lock,
// each run decoded into its path (a zero path where the read was
// cancelled), the paths' terms cut from one slice.
func (ix *Index) ReadPathsBatched(ctx context.Context, ids []PathID) (ps []paths.Path, err error) {
	err = ix.View(func(r Reader) error {
		var runs [][]uint32
		runs, _, err = r.ReadPathsBatched(ctx, ids)
		if runs == nil {
			return err
		}
		total, terms := 0, r.Terms()
		for _, run := range runs {
			total += len(run)
		}
		flat := make([]rdf.Term, 0, total)
		ps = make([]paths.Path, len(ids))
		for i, run := range runs {
			if run != nil {
				at := len(flat)
				for _, id := range run {
					flat = append(flat, terms[id])
				}
				ps[i] = pathOf(flat[at:len(flat):len(flat)], (len(run)+1)/2)
			}
		}
		return err
	})
	return ps, err
}

// Terms is a read-only term table: Terms[id] is the term of dictionary
// ID id.
type Terms []rdf.Term

// Path decodes a term-ID run as a record holds it — the nodes, then the
// edges — through the table.
func (ts Terms) Path(run []uint32) paths.Path {
	terms := make([]rdf.Term, len(run))
	for i, id := range run {
		terms[i] = ts[id]
	}
	return pathOf(terms, (len(run)+1)/2)
}

// Terms returns the dictionary as of this View. It stays valid after
// the View: within a layout the dictionary only appends (a failed
// insert truncates it back to its committed length), and a compaction,
// which renumbers terms, builds a fresh one — so it decodes every ID
// this View's layout hands out, and no other.
func (r Reader) Terms() Terms { return slices.Clip(r.ix.dict.terms) }

// TermID returns the dictionary ID of t, interning nothing: false when
// the dictionary lacks the term, which is then on no stored path.
func (r Reader) TermID(t rdf.Term) (uint32, bool) { return r.ix.dict.Lookup(t) }

// DropCache empties the buffer pool, returning the index to the
// cold-cache state of the Figure 6 protocol.
func (ix *Index) DropCache() error { return ix.pool.DropCache() }

// PoolStats exposes the buffer pool counters.
func (ix *Index) PoolStats() storage.PoolStats { return ix.pool.Stats() }

// Close checkpoints and closes the index files, then releases the
// lock, so a clean shutdown reopens with nothing to replay; if the
// checkpoint fails (a poisoned sync, say) the metadata is NOT advanced
// — the WAL keeps the records and the next Open replays them. An index
// with nothing applied since its metadata was last written (a
// read-only session) is closed without a checkpoint: its files are
// left as they are. Close is idempotent: a second call returns nil.
func (ix *Index) Close() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.lock == nil {
		return nil
	}
	var firstErr error
	if ix.applied != ix.durable {
		firstErr = ix.checkpointLocked()
	}
	for _, c := range []io.Closer{ix.wal, ix.pool, ix.file, ix.lock} {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ix.lock = nil
	return firstErr
}
