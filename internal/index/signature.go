package index

import (
	"slices"

	"sama/internal/textindex"
)

// PathSummary is the per-path record the engine's pre-rank consults:
// the node count and the 64-bit label fingerprint, both answered from
// memory with zero postings probes and zero disk reads.
type PathSummary struct {
	// Len is the path's node count (at most MaxPathLength).
	Len uint16
	// Sig ORs textindex.SigBits over every node and edge label of the
	// path (commitPath computes it). sig & probeMask == 0 proves the path
	// cannot match the probed label at any precision level (exact, token,
	// or thesaurus expansion); a shared bit proves nothing — the error is
	// one-sided.
	Sig uint64
}

// SummariesInto returns the in-memory summaries for the given IDs, in
// sc. An out-of-range or tombstoned ID fails the whole batch.
func (r Reader) SummariesInto(sc *Scratch, ids []PathID) ([]PathSummary, error) {
	out := slices.Grow(sc.sums[:0], len(ids))[:len(ids)]
	sc.sums = out
	for i, id := range ids {
		if err := r.ix.checkLive(id); err != nil {
			return nil, err
		}
		out[i] = PathSummary{Len: r.ix.lens[id], Sig: r.ix.sigs[id]}
	}
	return out, nil
}

// Summaries is Reader.SummariesInto under its own read lock; the caller
// owns the result.
func (ix *Index) Summaries(ids []PathID) (sums []PathSummary, err error) {
	err = ix.View(func(r Reader) error {
		sums, err = r.SummariesInto(new(Scratch), ids)
		return err
	})
	return sums, err
}

// LabelProbeMask returns the signature bits a lookup for label would
// consult under this index's thesaurus (see textindex.ProbeMask). A
// path whose summary signature shares no bit with the mask cannot be
// returned by PathsByLabel(label).
func (r Reader) LabelProbeMask(label string) uint64 {
	return textindex.ProbeMask(r.ix.opts.Thesaurus, label)
}

// PathsByAllLabels returns the IDs of the live paths containing ALL of
// the given labels, each matched at any precision level — the
// intersection of the PathsByLabel result sets, computed by a galloping
// leapfrog over the compressed postings instead of materialising any of
// the per-label expansions.
func (ix *Index) PathsByAllLabels(labels []string) []PathID {
	ix.mLabelLookups.Inc()
	return locked(ix, func(Reader) []PathID {
		ps := ix.labels.LookupIntersect(labels)
		return ix.appendLive(make([]PathID, 0, len(ps)), ps)
	})
}

// PathsByAllLabelsAmong appends to dst the first limit of cands — live
// path IDs in ascending order — that PathsByAllLabels(labels) contains,
// without computing the rest of that intersection (see
// textindex.IntersectAmong; dst may be cands[:0]).
func (r Reader) PathsByAllLabelsAmong(dst, cands []PathID, labels []string, limit int) []PathID {
	r.ix.mLabelLookups.Inc()
	return textindex.IntersectAmong(r.ix.labels, dst, cands, labels, limit)
}
