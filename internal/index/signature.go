package index

import (
	"fmt"
	"slices"

	"sama/internal/textindex"
)

// PathSummary is the per-path record the engine's pre-rank consults:
// the node count and the 64-bit label fingerprint, both answered from
// memory with zero postings probes and zero disk reads.
type PathSummary struct {
	// Len is the path's node count (saturated at 0xffff, like lens).
	Len uint16
	// Sig ORs textindex.SigBits over every node and edge label of the
	// path (commitPath computes it). sig & probeMask == 0 proves the path
	// cannot match the probed label at any precision level (exact, token,
	// or thesaurus expansion); a shared bit proves nothing — the error is
	// one-sided.
	Sig uint64
}

// Summaries returns the in-memory summaries for the given IDs under one
// read lock. Unlike the scalar accessors it reports staleness instead
// of degrading: an out-of-range ID (the space shrank under a
// compaction) or a tombstoned one fails the whole batch with
// ErrStaleRead, which the engine's restart loop turns into a re-run
// against the fresh state.
func (ix *Index) Summaries(ids []PathID) ([]PathSummary, error) {
	return ix.SummariesInto(new(Scratch), ids)
}

// SummariesInto is Summaries working in sc.
func (ix *Index) SummariesInto(sc *Scratch, ids []PathID) ([]PathSummary, error) {
	out := slices.Grow(sc.sums[:0], len(ids))[:len(ids)]
	sc.sums = out
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for i, id := range ids {
		if int(id) >= len(ix.lens) {
			return nil, fmt.Errorf("index: path %d out of range (%d paths): %w", id, len(ix.lens), ErrStaleRead)
		}
		if ix.deleted[id] {
			return nil, fmt.Errorf("index: path %d was invalidated by an update: %w", id, ErrStaleRead)
		}
		out[i] = PathSummary{Len: ix.lens[id], Sig: ix.sigs[id]}
	}
	return out, nil
}

// LabelProbeMask returns the signature bits a lookup for label would
// consult under this index's thesaurus (see textindex.ProbeMask). A
// path whose summary signature shares no bit with the mask cannot be
// returned by PathsByLabel(label).
func (ix *Index) LabelProbeMask(label string) uint64 {
	return textindex.ProbeMask(ix.thes, label)
}

// PathsByAllLabels returns the IDs of the live paths containing ALL of
// the given labels, each matched at any precision level — the
// intersection of the PathsByLabel result sets, computed by a galloping
// leapfrog over the compressed postings instead of materialising any of
// the per-label expansions.
func (ix *Index) PathsByAllLabels(labels []string) []PathID {
	ix.mLabelLookups.Inc()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ps := ix.labels.LookupIntersect(labels)
	return ix.appendLive(make([]PathID, 0, len(ps)), ps)
}

// PathsByAllLabelsAmong appends to dst the first limit of cands — live
// path IDs in ascending order — that PathsByAllLabels(labels) contains,
// without computing the rest of that intersection (see
// textindex.IntersectAmong; dst may be cands[:0]).
func (ix *Index) PathsByAllLabelsAmong(dst, cands []PathID, labels []string, limit int) []PathID {
	ix.mLabelLookups.Inc()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return textindex.IntersectAmong(ix.labels, dst, cands, labels, limit)
}
