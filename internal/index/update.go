package index

import (
	"context"
	"fmt"
	"slices"

	"sama/internal/rdf"
	"sama/internal/textindex"
)

// Graph returns the indexed data graph, with its node and edge IDs,
// spelt out through the dictionary into a fresh rdf.Graph.
func (ix *Index) Graph() *rdf.Graph {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	g, r := ix.graph, rdf.NewGraph()
	for _, id := range g.nodeTerm {
		r.AddNode(ix.dict.terms[id])
	}
	for e, id := range g.label {
		r.AddEdge(g.from[e], g.to[e], ix.dict.terms[id])
	}
	return r
}

// LivePaths returns the number of paths not tombstoned by updates.
func (ix *Index) LivePaths() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.livePathsLocked()
}

func (ix *Index) livePathsLocked() int {
	n := 0
	for _, del := range ix.deleted {
		if !del {
			n++
		}
	}
	return n
}

// InsertTriples applies new statements to the index incrementally — the
// update mechanism the paper lists as future work (§7). Only the paths
// a new edge can appear on change: a triple (s, p, o) adds an out-edge
// to s, so exactly the paths whose root reaches s are affected. The
// procedure:
//
//  1. add the triples to the data graph;
//  2. take the sources of the reverse closure of the new subjects — the
//     path roots that reach one of them, among them the roots the new
//     triples created;
//  3. re-enumerate the paths from the affected roots; one whose record
//     equals that of an indexed path starting at an affected root is
//     that path, unchanged, and keeps its ID;
//  4. index the other re-enumerated paths and tombstone the indexed
//     paths nothing matched, among them those of a root a new triple
//     points at, which is a root no more (the record store is
//     append-only; their bytes remain until a compaction).
//
// Sourceless (hub-rooted) graphs fall back to a full re-enumeration,
// every path re-indexed under a new ID in a new layout: hub promotion is
// a global property, so any edge can move the roots.
//
// The insert is all-or-nothing with respect to the index: the affected
// paths are staged to the record store first (a failure there leaves
// only unreferenced bytes behind) and the in-memory tables — epoch,
// tombstones, postings — commit last, in a phase that cannot fail. On
// error the index answers exactly as before the call, and the data graph
// and the dictionary are truncated to what they were, so the next
// metadata write cannot persist a graph the index does not match.
//
// The batch is logged and fsynced before any page is touched. The
// insert holds the writer lock across the append and the apply, so
// concurrent inserters take turns, each paying its own fsync, and an
// insert racing Close either lands whole before it or fails with
// nothing logged. A batch whose log record is durable but whose apply
// failed is in commit limbo: the caller saw an error and the index
// skipped it, but a crash before the next checkpoint will replay it —
// like a timed-out commit, it may land anyway.
func (ix *Index) InsertTriples(ts []rdf.Triple) error {
	if len(ts) == 0 {
		return nil
	}
	// Validate before logging: a malformed batch must not enter the WAL.
	for i, t := range ts {
		if err := t.Valid(); err != nil {
			return fmt.Errorf("index: triple %d: %w", i, err)
		}
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	// Log outside the index lock, so queries do not wait for the fsync.
	lsn, err := ix.wal.Append(encodeTriples(ts))
	if err != nil {
		return fmt.Errorf("index: wal append: %w", err)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	err = ix.applyTriplesLocked(ts)
	// Count even a failed apply as applied: the record is durable
	// regardless, and a checkpoint discards the whole log, so its
	// watermark must reach the last record.
	ix.applied = lsn
	if limit := ix.opts.checkpointBytes(); err == nil && limit > 0 && ix.wal.Size() >= limit {
		if cerr := ix.checkpointLocked(); cerr != nil {
			return fmt.Errorf("index: auto checkpoint: %w", cerr)
		}
	}
	return err
}

// applyTriplesLocked performs one insert batch under ix.mu. The graph
// mutation comes first, then everything that can fail — reading the
// affected roots' indexed paths and the record-store staging — and only
// then the in-memory commit, which cannot fail; a failure undoes the
// graph mutation and the terms it interned. The affected roots' paths
// reach their records through walkPaths, the route Build takes.
// WAL replay calls this too: re-applying a batch re-enumerates the same
// roots into the same records, so it keeps every ID and stages nothing.
func (ix *Index) applyTriplesLocked(ts []rdf.Triple) (err error) {
	g := ix.graph
	wasHubRooted := !g.hasSource()
	mark := graphMark{len(g.nodeTerm), len(g.from), ix.dict.Len()}
	defer func() {
		if err != nil {
			g.undo(mark, ix.dict)
		}
	}()

	subjects, objects := make([]rdf.NodeID, len(ts)), make([]rdf.NodeID, len(ts))
	for i, t := range ts {
		subjects[i], objects[i] = g.addTriple(ix.dict, t)
	}

	var roots []rdf.NodeID
	var old oldPaths
	tombAll := false
	if wasHubRooted || !g.hasSource() {
		// Hub-rooted before or after: recompute everything.
		roots = g.roots()
		tombAll = true
	} else {
		// The graph's roots are its sources, and the affected ones those
		// that reach a batch subject, among them every new root.
		roots = affectedRoots(g, subjects)
		// A batch object with out-edges may have been a root: it has an
		// in-edge now, so it is none, and the paths it started are stale.
		// They are read with the roots' and, since no path re-enumerated
		// below starts there, matched by none: tombstoned.
		starts := slices.Clip(roots)
		for _, o := range objects {
			if len(g.out[o]) > 0 {
				starts = append(starts, o)
			}
		}
		if old, err = ix.oldPathsFrom(starts); err != nil {
			return err
		}
	}

	// Stage: append every new path to the record store before touching
	// the in-memory tables; a path whose record old holds is that path,
	// unchanged, and not new. A failure here aborts with the index
	// unchanged: the store forgets the records staged — their bytes are
	// orphans in an append-only store, reclaimed by the next compaction,
	// and their IDs are handed out again — and the graph's undo forgets
	// the terms the batch interned too, or the next metadata write would
	// persist a graph the index does not match. ids holds every staged
	// path's term IDs back to back; ends[i] is where the i-th one's stop.
	var ends []int
	var ids []uint32
	npaths := len(ix.lens)
	err = ix.walkPaths(context.TODO(), roots, func(p []uint32, rec []byte) error {
		if old.match(rec) {
			return nil
		}
		if _, err := ix.store.Append(rec); err != nil {
			return fmt.Errorf("index: stage path: %w", err)
		}
		ids = append(ids, p...)
		ends = append(ends, len(ids))
		return nil
	})
	if err != nil {
		ix.store.Seal(npaths)
		return err
	}

	// Commit: pure memory from here on. The epoch bumps only now, so a
	// failed insert never invalidates caches for a state that did not
	// change.
	ix.epoch++
	if tombAll {
		// Every path gets a new ID: a new layout, not a log of the whole
		// index.
		for id := range ix.deleted {
			ix.deleted[id] = true
		}
		ix.layout++
		ix.tombs = nil
	} else {
		for i, id := range old.ids {
			if !old.kept[i] {
				ix.deleted[id] = true
				ix.tombs = append(ix.tombs, id)
			}
		}
	}
	from := 0
	for _, end := range ends {
		ix.commitPath(ids[from:end])
		from = end
	}
	ix.stats.Triples = len(g.from)
	ix.stats.HV = g.NodeCount()
	ix.stats.Paths = ix.livePathsLocked()
	ix.stats.HE = len(g.from) + ix.stats.Paths
	return nil
}

// Watermark is a point in one layout's insert history: the path count
// and the tombstone log's length. Within the layout, the paths committed
// since a watermark are exactly the IDs from Paths up, each above every
// ID it names, and the paths tombstoned since are the log from Tombs on.
type Watermark struct{ Paths, Tombs int }

// Watermark returns the present point of the layout's insert history.
func (r Reader) Watermark() Watermark { return Watermark{len(r.ix.lens), len(r.ix.tombs)} }

// Field selects one of the two label postings: path sinks, or every
// label on a path.
type Field uint8

const (
	Sinks Field = iota
	Labels
)

func (ix *Index) postings(f Field) *textindex.Index {
	if f == Sinks {
		return ix.sinks
	}
	return ix.labels
}

// PostingsFrom appends to dst, ascending, the IDs from up whose f
// postings match label (exact, token, and thesaurus expansion),
// tombstoned ones included. With from a watermark's Paths that is what
// the inserts since added to the lookup; it costs a seek per list and
// per match, not the lists' length.
func (r Reader) PostingsFrom(dst []PathID, f Field, label string, from PathID) []PathID {
	return textindex.LookupFrom(r.ix.postings(f), dst, label, uint32(from))
}

// TombstonedSince returns, ascending, the IDs tombstoned since w whose f
// postings match label: postings keep a tombstoned ID until the
// compaction swap. w must be of the current layout.
func (r Reader) TombstonedSince(w Watermark, f Field, label string) []PathID {
	ids := slices.Clone(r.ix.tombs[w.Tombs:])
	slices.Sort(ids)
	return textindex.IntersectAmong(r.ix.postings(f), ids[:0], ids, []string{label}, len(ids))
}

// affectedRoots returns, ascending, the sources of the reverse closure
// of the seeds: the nodes with no in-edge that reach one of the seeds
// (or are one), following edges backwards. Every seed has an out-edge,
// and so has every node the closure reaches. It takes seeds over as its
// stack and sizes nothing by the graph.
func affectedRoots(g *idGraph, seeds []rdf.NodeID) []rdf.NodeID {
	reach := make(map[rdf.NodeID]bool, len(seeds))
	var roots []rdf.NodeID
	for len(seeds) > 0 {
		n := seeds[len(seeds)-1]
		if seeds = seeds[:len(seeds)-1]; !reach[n] {
			reach[n] = true
			if len(g.in[n]) == 0 {
				roots = append(roots, n)
			}
			for _, e := range g.in[n] {
				seeds = append(seeds, g.from[e])
			}
		}
	}
	slices.Sort(roots)
	return roots
}

// oldPaths is the multiset an insert matches its re-enumerated paths
// against: the live paths starting at a node the insert affects, with
// their records. A re-enumerated path whose record equals an unmatched
// one's is that path, unchanged: it keeps the ID (kept) and is not
// staged. The paths left unmatched are the ones the insert tombstones.
// Each record matches at most once, so the live records after the
// commit are the re-enumeration's, duplicates included.
type oldPaths struct {
	ids  []PathID
	kept []bool
	// recs holds the records back to back, ids[i]'s ending at ends[i];
	// byRec maps a record not matched yet (a substring of recs, so that
	// no key is a separate allocation) to its holder's position.
	recs  string
	ends  []int
	byRec map[string]int
}

// rec returns ids[i]'s record.
func (o *oldPaths) rec(i int) string {
	lo := 0
	if i > 0 {
		lo = o.ends[i-1]
	}
	return o.recs[lo:o.ends[i]]
}

// match marks the unmatched old path whose record is rec as kept, if
// there is one.
func (o *oldPaths) match(rec []byte) bool {
	i, ok := o.byRec[string(rec)]
	if ok {
		o.kept[i] = true
		delete(o.byRec, o.rec(i))
	}
	return ok
}

// oldPathsFrom returns the live paths whose source term is one of the
// starts', with their records read in one batched read, without
// mutating anything — the caller applies the tombstones in the commit
// phase. A read failure aborts the insert instead of silently keeping a
// stale path alive.
func (ix *Index) oldPathsFrom(starts []rdf.NodeID) (oldPaths, error) {
	var old oldPaths
	read := make(map[uint32]bool, len(starts))
	for _, n := range starts {
		term := ix.graph.nodeTerm[n]
		if read[term] {
			continue
		}
		read[term] = true
		for _, id := range ix.sources[term] {
			if !ix.deleted[id] {
				old.ids = append(old.ids, id)
			}
		}
	}
	recs, _, err := ix.records(context.TODO(), old.ids)
	if err != nil {
		return old, fmt.Errorf("index: read the affected roots' paths: %w", err)
	}
	var all []byte
	old.ends = make([]int, len(recs))
	for i, rec := range recs {
		all = append(all, rec...)
		old.ends[i] = len(all)
	}
	old.recs = string(all)
	old.kept = make([]bool, len(old.ids))
	old.byRec = make(map[string]int, len(old.ids))
	for i := range old.ids {
		if _, dup := old.byRec[old.rec(i)]; !dup {
			old.byRec[old.rec(i)] = i
		}
	}
	return old, nil
}
