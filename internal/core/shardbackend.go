package core

import (
	"context"
	"slices"

	"sama/internal/index"
	"sama/internal/paths"
	"sama/internal/shard"
)

// shardBackend serves the engine's backend surface over a shard set,
// in global path IDs (shard.Set.GlobalID). Point lookups route to the
// owning shard; posting lookups scatter to every shard and merge the
// sorted results. NumPaths returns the exclusive global-ID bound, not
// the path count — the global space has holes wherever shard sizes
// differ, which Live-gated scans (fallbackScan) handle and nothing
// else in the engine assumes away.
//
// buildCluster over this backend builds the cluster the monolithic
// index would: a posting lookup is non-empty exactly when some shard's
// is, so retrieve's cascade stops at the level the monolith stops at,
// with the same candidates in the same ascending order; the pre-rank
// reads only global IDs, summaries and the merged per-shard
// intersections; and the final (cost, ID) sort is a strict total order,
// so it does not matter which shard an item came from.
type shardBackend struct {
	set *shard.Set
}

func (b shardBackend) Epoch() uint64             { return b.set.Epoch() }
func (b shardBackend) NumPaths() int             { return int(b.set.MaxGlobalID()) }
func (b shardBackend) Live(id index.PathID) bool { return b.set.LiveGlobal(id) }

// split files the global IDs under their owning shards: shard k's part
// of sc gets the local IDs and, per local ID, its position in ids.
func (b shardBackend) split(sc *clusterScratch, ids []index.PathID) []shardScratch {
	shards := sc.perShard(b.set.NumShards())
	for k := range shards {
		shards[k].locals, shards[k].pos = shards[k].locals[:0], shards[k].pos[:0]
	}
	for i, id := range ids {
		k, local := b.set.Locate(id)
		shards[k].pos = append(shards[k].pos, i)
		shards[k].locals = append(shards[k].locals, local)
	}
	return shards
}

// Summaries fetches each shard's summaries in one batch and scatters
// them back positionally. Any shard reporting ErrStaleRead fails the
// whole batch, matching the monolithic semantics: the engine restarts
// the query, it never ranks against a torn view.
func (b shardBackend) Summaries(sc *clusterScratch, ids []index.PathID) ([]index.PathSummary, error) {
	shards := b.split(sc, ids)
	out := slices.Grow(sc.sums[:0], len(ids))[:len(ids)]
	sc.sums = out
	for k := range shards {
		if len(shards[k].locals) == 0 {
			continue
		}
		sums, err := b.set.Shard(k).SummariesInto(&shards[k].idx, shards[k].locals)
		if err != nil {
			return nil, err
		}
		for i, s := range sums {
			out[shards[k].pos[i]] = s
		}
	}
	return out, nil
}

// LabelProbeMask answers from shard 0: the mask depends only on the
// tokenizer and the thesaurus, which every shard in a set shares, so
// any shard gives the set-wide answer.
func (b shardBackend) LabelProbeMask(label string) uint64 {
	return b.set.Shard(0).LabelProbeMask(label)
}

// PathsByAllLabelsAmong asks every shard for the first limit of its
// own candidates (filtered in place) and merges: the shards partition
// the path set and GlobalID is monotone per shard, so the first limit
// of the merged lists are the first limit of the global intersection.
func (b shardBackend) PathsByAllLabelsAmong(sc *clusterScratch, dst, cands []index.PathID, labels []string, limit int) []index.PathID {
	lists := sc.lists[:0]
	for k, sh := range b.split(sc, cands) {
		if len(sh.locals) == 0 {
			continue
		}
		got := b.set.Shard(k).PathsByAllLabelsAmong(sh.locals[:0], sh.locals, labels, limit)
		for i, l := range got {
			got[i] = b.set.GlobalID(k, l)
		}
		lists = append(lists, got)
	}
	sc.lists = lists
	n := len(dst)
	dst = mergeSortedIDs(dst, lists)
	return dst[:min(len(dst), n+limit)]
}

func (b shardBackend) PathsBySink(sc *clusterScratch, label string) []index.PathID {
	return b.gather(sc, func(k int, isc *index.Scratch) []index.PathID {
		return b.set.Shard(k).PathsBySinkInto(isc, label)
	})
}

func (b shardBackend) PathsByLabel(sc *clusterScratch, label string) []index.PathID {
	return b.gather(sc, func(k int, isc *index.Scratch) []index.PathID {
		return b.set.Shard(k).PathsByLabelInto(isc, label)
	})
}

// gather runs one posting lookup on every shard, each in its own part
// of sc, maps the results to global IDs in place and merges them into
// ascending global-ID order — the order the monolithic index's postings
// come back in, since GlobalID is monotone per shard.
func (b shardBackend) gather(sc *clusterScratch, lookup func(k int, isc *index.Scratch) []index.PathID) []index.PathID {
	shards := sc.perShard(b.set.NumShards())
	lists := sc.lists[:0]
	for k := range shards {
		if ids := lookup(k, &shards[k].idx); len(ids) > 0 {
			for i, l := range ids {
				ids[i] = b.set.GlobalID(k, l)
			}
			lists = append(lists, ids)
		}
	}
	sc.lists = lists
	if len(lists) == 1 {
		return lists[0]
	}
	sc.merged = mergeSortedIDs(sc.merged[:0], lists)
	return sc.merged
}

// ReadPathsBatched splits the global IDs by owning shard, runs one
// page-locality batched read per shard, and scatters the results back
// positionally. Error semantics follow index.ReadPathsBatched: a
// cancelled context returns partial results alongside the context
// error; a stale or failed read fails the batch.
func (b shardBackend) ReadPathsBatched(ctx context.Context, ids []index.PathID) ([]paths.Path, error) {
	out := make([]paths.Path, len(ids))
	if len(ids) == 0 {
		return out, nil
	}
	n := b.set.NumShards()
	pos := make([][]int, n)
	locals := make([][]index.PathID, n)
	for i, id := range ids {
		k, local := b.set.Locate(id)
		pos[k] = append(pos[k], i)
		locals[k] = append(locals[k], local)
	}
	var firstErr error
	for k := 0; k < n; k++ {
		if len(locals[k]) == 0 {
			continue
		}
		ps, err := b.set.Shard(k).ReadPathsBatched(ctx, locals[k])
		if err != nil && ctx.Err() == nil {
			return nil, err
		}
		for i, p := range ps {
			out[pos[k][i]] = p
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// mergeSortedIDs k-way merges ascending ID lists onto dst. The lists
// are disjoint (each shard owns a distinct residue class of the global
// ID space), so a simple smallest-head loop suffices.
func mergeSortedIDs(dst []index.PathID, lists [][]index.PathID) []index.PathID {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	dst = slices.Grow(dst, total)
	heads := make([]int, len(lists))
	for n := 0; n < total; n++ {
		best := -1
		for li, l := range lists {
			if heads[li] >= len(l) {
				continue
			}
			if best < 0 || l[heads[li]] < lists[best][heads[best]] {
				best = li
			}
		}
		dst = append(dst, lists[best][heads[best]])
		heads[best]++
	}
	return dst
}
