// Package shard partitions the path index into N self-contained shards
// and exposes them as one logical index. Every shard is a complete
// index.Index over a disjoint slice of the path space — its own pages,
// metadata, WAL directory, and epoch — so inserts route by partition
// and recovery and compaction run per shard, independently.
//
// The engine addresses the set through global path IDs: the path with
// local ID l on shard k has global ID l*N+k. The mapping is a pure
// function — nothing is persisted, nothing can drift — and with the
// default partitioner's cyclic build assignment the global ID of every
// build-time path equals the ID the monolithic build would have given
// it, which is what makes the sharded engine's (cost, ID) tie-break
// order identical to the single-shard engine's. See DESIGN.md §12.
package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sama/internal/index"
	"sama/internal/obs"
	"sama/internal/paths"
	"sama/internal/rdf"
	"sama/internal/storage"
)

// Shard is the read surface the sharded engine needs from one
// partition. *index.Index satisfies it; the interface exists so the
// engine's shard backend does not reach past the query primitives into
// shard lifecycle (that is the Set's job).
type Shard interface {
	Epoch() uint64
	NumPaths() int
	Live(id index.PathID) bool
	SummariesInto(sc *index.Scratch, ids []index.PathID) ([]index.PathSummary, error)
	LabelProbeMask(label string) uint64
	PathsBySinkInto(sc *index.Scratch, label string) []index.PathID
	PathsByLabelInto(sc *index.Scratch, label string) []index.PathID
	PathsByAllLabelsAmong(dst, cands []index.PathID, labels []string, limit int) []index.PathID
	ReadPathsBatched(ctx context.Context, ids []index.PathID) ([]paths.Path, error)
}

// Options configures a sharded build or open.
type Options struct {
	// Shards is the partition count. Build requires it ≥ 1; Open reads
	// the count from the manifest and only checks a non-zero value here
	// against it.
	Shards int
	// Partitioner routes paths to shards (nil: HashPartitioner). Open
	// reconstructs the build-time partitioner from the manifest when nil
	// and rejects a mismatch when set: querying is placement-agnostic,
	// but inserts routed by a different partitioner than the one that
	// built the shards would split a root's re-enumerated paths
	// differently than recovery replay will.
	Partitioner Partitioner
	// Index configures every shard. WALDir, when set, is a parent
	// directory: shard k logs under WALDir/sNNN. AssignPath must be nil —
	// the set installs its own per-shard partition predicate.
	Index index.Options
}

// Set is N shards behind one logical-index surface. Reads (the Shard
// primitives, stats) are as concurrent as the underlying indexes;
// InsertTriples and Recover serialise behind the set's own lock because
// they fan one batch out to every shard over the single shared graph.
type Set struct {
	base   string
	part   Partitioner
	shards []*index.Index
	// mu serialises graph-mutating fan-outs. Per-shard locking is not
	// enough: two concurrent batches interleaving across shards would
	// let shard A see batch 1 then 2 and shard B see 2 then 1, and the
	// shared graph mid-states the later apply observes would differ.
	mu sync.Mutex
}

// Dir returns the directory holding a sharded layout for base. It is a
// sibling of the monolithic base.pages/base.meta files, so the two
// layouts for one base name cannot half-overwrite each other.
func Dir(base string) string { return base + ".shards" }

func shardName(k int) string             { return fmt.Sprintf("s%03d", k) }
func shardBase(dir string, k int) string { return filepath.Join(dir, shardName(k)) }
func manifestPath(dir string) string     { return filepath.Join(dir, "manifest.json") }

// manifest records what Open cannot infer: the shard count and the
// partitioner that placed the paths.
type manifest struct {
	Version     int    `json:"version"`
	Shards      int    `json:"shards"`
	Partitioner string `json:"partitioner"`
}

// IsSharded reports whether base has a sharded layout (a manifest in
// Dir(base)). A crashed Build leaves shard files but no manifest, so a
// half-built layout is not detected as one.
func IsSharded(base string) bool {
	_, err := os.Stat(manifestPath(Dir(base)))
	return err == nil
}

// assignPredicate is the per-shard Options.AssignPath: shard k keeps
// the paths the partitioner's insert-time routing (seq = -1) sends to
// k. Build-time placement uses the seq-aware call directly; this
// predicate is only consulted by online inserts and WAL replay, where
// no global sequence exists.
func assignPredicate(part Partitioner, k, n int) func(paths.Path) bool {
	return func(p paths.Path) bool { return part.Assign(p, -1, n) == k }
}

// shardOptions derives shard k's index.Options from the set options.
func shardOptions(opts Options, part Partitioner, k, n int) index.Options {
	io := opts.Index
	io.AssignPath = assignPredicate(part, k, n)
	if io.WALDir != "" {
		io.WALDir = filepath.Join(io.WALDir, shardName(k))
	}
	return io
}

// Build enumerates g once, routes every path to its owning shard, and
// builds N complete indexes under Dir(base). The manifest is written
// last, after every shard built: a crash mid-build leaves no manifest,
// so the leftovers are invisible to Open/IsSharded and the next Build
// overwrites them.
func Build(base string, g *rdf.Graph, opts Options) (*Set, error) {
	n := opts.Shards
	if n < 1 {
		return nil, fmt.Errorf("shard: build needs Shards ≥ 1 (got %d)", n)
	}
	if opts.Index.AssignPath != nil {
		return nil, fmt.Errorf("shard: Options.Index.AssignPath must be nil (the set installs the partition predicate)")
	}
	part := opts.Partitioner
	if part == nil {
		part = HashPartitioner{}
	}
	dir := Dir(base)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: layout dir: %w", err)
	}
	cfg := opts.Index.Paths
	if cfg == (paths.Config{}) {
		cfg = paths.DefaultConfig
	}
	ps := paths.Enumerate(g, cfg)
	perShard := make([][]paths.Path, n)
	for seq, p := range ps {
		k := part.Assign(p, seq, n)
		if k < 0 || k >= n {
			return nil, fmt.Errorf("shard: partitioner %q assigned path %d to shard %d of %d", part.Name(), seq, k, n)
		}
		perShard[k] = append(perShard[k], p)
	}
	s := &Set{base: base, part: part, shards: make([]*index.Index, n)}
	for k := range s.shards {
		ix, err := index.BuildPaths(shardBase(dir, k), g, perShard[k], shardOptions(opts, part, k, n))
		if err != nil {
			for _, built := range s.shards[:k] {
				built.Close()
			}
			return nil, fmt.Errorf("shard: build shard %d: %w", k, err)
		}
		s.shards[k] = ix
	}
	if err := writeManifest(dir, manifest{Version: 1, Shards: n, Partitioner: part.Name()}); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Open loads a sharded layout previously written by Build. Like
// index.Open, the result cannot serve inserts until the caller hands it
// the data graph (AttachGraph or Recover).
func Open(base string, opts Options) (*Set, error) {
	if opts.Index.AssignPath != nil {
		return nil, fmt.Errorf("shard: Options.Index.AssignPath must be nil (the set installs the partition predicate)")
	}
	dir := Dir(base)
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if opts.Shards != 0 && opts.Shards != m.Shards {
		return nil, fmt.Errorf("shard: layout at %s has %d shards, options say %d", dir, m.Shards, opts.Shards)
	}
	part := opts.Partitioner
	if part == nil {
		if part, err = byName(m.Partitioner); err != nil {
			return nil, err
		}
	} else if part.Name() != m.Partitioner {
		return nil, fmt.Errorf("shard: layout at %s was built with partitioner %q, options pass %q", dir, m.Partitioner, part.Name())
	}
	n := m.Shards
	s := &Set{base: base, part: part, shards: make([]*index.Index, n)}
	for k := range s.shards {
		ix, err := index.Open(shardBase(dir, k), shardOptions(opts, part, k, n))
		if err != nil {
			for _, opened := range s.shards[:k] {
				opened.Close()
			}
			return nil, fmt.Errorf("shard: open shard %d: %w", k, err)
		}
		s.shards[k] = ix
	}
	return s, nil
}

func writeManifest(dir string, m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := manifestPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("shard: write manifest: %w", err)
	}
	if err := os.Rename(tmp, manifestPath(dir)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("shard: write manifest: %w", err)
	}
	return nil
}

func readManifest(dir string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return m, fmt.Errorf("shard: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("shard: parse manifest: %w", err)
	}
	if m.Version != 1 {
		return m, fmt.Errorf("shard: manifest version %d not supported", m.Version)
	}
	if m.Shards < 1 {
		return m, fmt.Errorf("shard: manifest names %d shards", m.Shards)
	}
	return m, nil
}

// ---- addressing ---------------------------------------------------------

// NumShards returns the partition count.
func (s *Set) NumShards() int { return len(s.shards) }

// Shard returns partition k's read surface.
func (s *Set) Shard(k int) Shard { return s.shards[k] }

// Partitioner returns the routing function the set was built with.
func (s *Set) Partitioner() Partitioner { return s.part }

// GlobalID maps shard k's local path ID into the set-wide ID space.
func (s *Set) GlobalID(k int, local index.PathID) index.PathID {
	return local*index.PathID(len(s.shards)) + index.PathID(k)
}

// Locate inverts GlobalID.
func (s *Set) Locate(g index.PathID) (k int, local index.PathID) {
	n := index.PathID(len(s.shards))
	return int(g % n), g / n
}

// MaxGlobalID returns an exclusive upper bound on the set's global IDs.
// The global ID space has holes wherever shard sizes differ (a fresh
// cyclic build is dense; inserts and compactions are not), so callers
// scanning it must check LiveGlobal.
func (s *Set) MaxGlobalID() index.PathID {
	var max index.PathID
	for k, ix := range s.shards {
		if np := ix.NumPaths(); np > 0 {
			if bound := s.GlobalID(k, index.PathID(np-1)) + 1; bound > max {
				max = bound
			}
		}
	}
	return max
}

// LiveGlobal reports whether the global ID names a live path (in range
// on its shard and not tombstoned).
func (s *Set) LiveGlobal(g index.PathID) bool {
	k, local := s.Locate(g)
	return int(local) < s.shards[k].NumPaths() && s.shards[k].Live(local)
}

// ---- aggregate reads ----------------------------------------------------

// Epoch sums the shard epochs. Each shard's epoch is monotone under its
// own lock, so the sum is monotone too and bumps whenever any shard
// mutates — exactly the property the engine's caches and the stale-read
// restart need. It is not a consistent cut: concurrent per-shard reads
// around it may straddle a mutation, which the per-cluster epoch checks
// catch shard by shard.
func (s *Set) Epoch() uint64 {
	var sum uint64
	for _, ix := range s.shards {
		sum += ix.Epoch()
	}
	return sum
}

// NumPaths sums the shard path counts, tombstoned included.
func (s *Set) NumPaths() int {
	sum := 0
	for _, ix := range s.shards {
		sum += ix.NumPaths()
	}
	return sum
}

// LivePaths sums the shards' live path counts.
func (s *Set) LivePaths() int {
	sum := 0
	for _, ix := range s.shards {
		sum += ix.LivePaths()
	}
	return sum
}

// Stats merges the shard statistics. Graph-derived figures (Triples,
// HV) come from shard 0 — every shard indexes the same graph — while
// the path-derived ones sum; BuildTime sums because the shards build
// sequentially.
func (s *Set) Stats() index.Stats {
	st := s.shards[0].Stats()
	st.Paths = 0
	st.DiskBytes = 0
	st.BuildTime = 0
	for _, ix := range s.shards {
		sst := ix.Stats()
		st.Paths += sst.Paths
		st.DiskBytes += sst.DiskBytes
		st.BuildTime += sst.BuildTime
	}
	st.HE = st.Triples + st.Paths
	return st
}

// PoolStats sums the shards' buffer-pool counters.
func (s *Set) PoolStats() storage.PoolStats {
	var st storage.PoolStats
	for _, ix := range s.shards {
		p := ix.PoolStats()
		st.Hits += p.Hits
		st.Misses += p.Misses
		st.Evictions += p.Evictions
		st.Flushes += p.Flushes
		st.Retries += p.Retries
	}
	return st
}

// BatchedReads sums the shards' batched-read counters.
func (s *Set) BatchedReads() index.BatchedReadStats {
	var st index.BatchedReadStats
	for _, ix := range s.shards {
		b := ix.BatchedReads()
		st.Reads += b.Reads
		st.Paths += b.Paths
		st.Pages += b.Pages
	}
	return st
}

// WALStats merges the shards' WAL counters; ok is false when no shard
// has a WAL. Counters sum, the torn-tail flag ORs, LastLSN takes the
// max (per-shard logs number independently, so the max is only a
// high-water mark), and the batching factor is recomputed from the
// summed counters.
func (s *Set) WALStats() (storage.WALStats, bool) {
	var st storage.WALStats
	any := false
	for _, ix := range s.shards {
		w, ok := ix.WALStats()
		if !ok {
			continue
		}
		any = true
		st.Appends += w.Appends
		st.Syncs += w.Syncs
		st.Batches += w.Batches
		st.Bytes += w.Bytes
		st.AppendedBytes += w.AppendedBytes
		st.Segments += w.Segments
		st.Rotations += w.Rotations
		st.Checkpoints += w.Checkpoints
		st.TornTailRepaired = st.TornTailRepaired || w.TornTailRepaired
		if w.LastLSN > st.LastLSN {
			st.LastLSN = w.LastLSN
		}
	}
	if st.Batches > 0 {
		st.BatchingFactor = float64(st.Appends) / float64(st.Batches)
	}
	return st, any
}

// ---- mutation fan-out ---------------------------------------------------

// AttachGraph hands every shard the shared data graph (see
// index.AttachGraph).
func (s *Set) AttachGraph(g *rdf.Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ix := range s.shards {
		ix.AttachGraph(g)
	}
}

// Graph returns the attached data graph, or nil.
func (s *Set) Graph() *rdf.Graph { return s.shards[0].Graph() }

// InsertTriples fans the batch out to every shard. All shards receive
// the whole batch — each one re-enumerates the affected roots against
// the shared graph and keeps only its own partition, so the graph
// mutation is idempotent across the fan-out and each shard's WAL logs
// the full batch (write amplification N×, the price of per-shard
// recovery independence). A failure on shard k leaves shards 0..k-1
// ahead; the apply is idempotent, so retrying the same batch completes
// the laggards without double-indexing the leaders.
func (s *Set) InsertTriples(ts []rdf.Triple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, ix := range s.shards {
		if err := ix.InsertTriples(ts); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}

// NeedsRecovery returns -1 when no shard needs recovery, otherwise the
// total number of pending WAL records across the shards that do (which
// can be 0: a shard can need Recover just to complete its graph).
func (s *Set) NeedsRecovery() int {
	total, need := 0, false
	for _, ix := range s.shards {
		if n := ix.NeedsRecovery(); n >= 0 {
			need = true
			total += n
		}
	}
	if !need {
		return -1
	}
	return total
}

// Recover replays every shard's pending WAL suffix against the shared
// graph, sequentially in shard order, and returns the merged stats.
// Sequential is correct, not just simple: each shard's replay mutates g
// idempotently (every sidecar carries the same inserted triples), and
// per-shard ordering is what recovery guarantees anyway — cross-shard
// apply order never affected placement, which is content-hashed.
func (s *Set) Recover(g *rdf.Graph) (index.RecoveryStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rs index.RecoveryStats
	for k, ix := range s.shards {
		srs, err := ix.Recover(g)
		rs.SidecarTriples += srs.SidecarTriples
		rs.Records += srs.Records
		rs.Triples += srs.Triples
		rs.TornTailRepaired = rs.TornTailRepaired || srs.TornTailRepaired
		rs.Replay += srs.Replay
		if err != nil {
			return rs, fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return rs, nil
}

// LastRecovery merges the shards' most recent recovery stats.
func (s *Set) LastRecovery() index.RecoveryStats {
	var rs index.RecoveryStats
	for _, ix := range s.shards {
		srs := ix.LastRecovery()
		rs.SidecarTriples += srs.SidecarTriples
		rs.Records += srs.Records
		rs.Triples += srs.Triples
		rs.TornTailRepaired = rs.TornTailRepaired || srs.TornTailRepaired
		rs.Replay += srs.Replay
	}
	return rs
}

// Flush flushes every shard; the first error aborts (the remaining
// shards keep their WAL records, so nothing is lost).
func (s *Set) Flush() error {
	for k, ix := range s.shards {
		if err := ix.Flush(); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}

// Checkpoint checkpoints every WAL-enabled shard.
func (s *Set) Checkpoint() error {
	for k, ix := range s.shards {
		if err := ix.Checkpoint(); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}

// Compact compacts every shard sequentially (CompactIncremental with
// the default batch).
func (s *Set) Compact() error {
	_, err := s.CompactIncremental(context.Background(), 0)
	return err
}

// CompactIncremental compacts the shards one after another, merging the
// stats (counts sum, MaxPause is the worst single stall anywhere,
// Elapsed sums). Compacting a shard renumbers only that shard's local
// IDs and bumps only its epoch; global IDs of other shards' paths are
// untouched, which is what makes per-shard compaction safe under the
// set's addressing.
func (s *Set) CompactIncremental(ctx context.Context, batch int) (index.CompactStats, error) {
	var cs index.CompactStats
	for k, ix := range s.shards {
		scs, err := ix.CompactIncremental(ctx, batch)
		cs.Live += scs.Live
		cs.Copied += scs.Copied
		cs.DeltaCopied += scs.DeltaCopied
		cs.Batches += scs.Batches
		cs.Pauses = append(cs.Pauses, scs.Pauses...)
		if scs.MaxPause > cs.MaxPause {
			cs.MaxPause = scs.MaxPause
		}
		cs.Elapsed += scs.Elapsed
		if err != nil {
			return cs, fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return cs, nil
}

// DropCache empties every shard's buffer pool (the Figure 6 cold-cache
// protocol).
func (s *Set) DropCache() error {
	for k, ix := range s.shards {
		if err := ix.DropCache(); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}

// Close closes every shard, returning the first error but closing the
// rest regardless.
func (s *Set) Close() error {
	var firstErr error
	for k, ix := range s.shards {
		if err := ix.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return firstErr
}

// ---- observability ------------------------------------------------------

// SetMetrics registers the set's instrumentation. The set-wide
// aggregate functions (path count, disk bytes, batched-read counters)
// register first: the registry keeps the first registration of a
// metric function, so the per-shard SetMetrics calls that follow
// contribute their shared counters (lookups, path reads, WAL
// histograms — get-or-create handles, increments accumulate across
// shards) but their per-index function registrations become no-ops.
func (s *Set) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("sama_index_batched_reads_total",
		"Page-locality batched read calls (ReadPathsBatched).",
		func() uint64 { return s.BatchedReads().Reads })
	reg.CounterFunc("sama_index_batched_read_paths_total",
		"Paths materialised through batched reads.",
		func() uint64 { return s.BatchedReads().Paths })
	reg.CounterFunc("sama_index_batched_read_pages_total",
		"Distinct first-chunk pages visited by batched reads.",
		func() uint64 { return s.BatchedReads().Pages })
	reg.GaugeFunc("sama_index_paths",
		"Indexed paths, tombstoned included.",
		func() float64 { return float64(s.NumPaths()) })
	reg.GaugeFunc("sama_index_disk_bytes",
		"On-disk footprint of the index files.",
		func() float64 { return float64(s.Stats().DiskBytes) })
	reg.GaugeFunc("sama_shard_count", "Shards in the sharded index set.",
		func() float64 { return float64(len(s.shards)) })
	for _, ix := range s.shards {
		ix.SetMetrics(reg)
	}
}

// SetEvents attaches the structured event log to every shard.
func (s *Set) SetEvents(events *obs.EventLog) {
	for _, ix := range s.shards {
		ix.SetEvents(events)
	}
}
