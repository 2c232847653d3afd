package storage

import (
	"context"
	"sync/atomic"
)

// IOTally accumulates the page-level I/O performed on behalf of one
// logical operation (typically one query). The buffer pool's own
// counters are global — under concurrent queries a before/after diff of
// PoolStats charges a query its neighbours' reads — so per-operation
// attribution instead threads a tally through the context: every pool
// read increments both the global counters and, when the context
// carries one, the caller's tally. The counters are atomics because a
// query's cluster builds fault pages in from several goroutines at
// once.
//
// A nil *IOTally is valid and counts nothing.
type IOTally struct {
	hits, misses, retries atomic.Uint64
}

func (t *IOTally) addHit() {
	if t != nil {
		t.hits.Add(1)
	}
}

func (t *IOTally) addMiss() {
	if t != nil {
		t.misses.Add(1)
	}
}

func (t *IOTally) addRetry() {
	if t != nil {
		t.retries.Add(1)
	}
}

// Hits returns the pages served from the pool's cache.
func (t *IOTally) Hits() uint64 {
	if t == nil {
		return 0
	}
	return t.hits.Load()
}

// Misses returns the pages faulted in from the underlying file.
func (t *IOTally) Misses() uint64 {
	if t == nil {
		return 0
	}
	return t.misses.Load()
}

// Retries returns the transient I/O errors absorbed while serving this
// operation (including retries of victim flushes its faults forced).
func (t *IOTally) Retries() uint64 {
	if t == nil {
		return 0
	}
	return t.retries.Load()
}

// tallyKey is the context key carrying an *IOTally.
type tallyKey struct{}

// WithTally returns a context carrying the tally; pool reads performed
// under it are attributed to the tally as well as the global counters.
func WithTally(ctx context.Context, t *IOTally) context.Context {
	return context.WithValue(ctx, tallyKey{}, t)
}

// TallyFrom returns the context's tally, or nil (which counts nothing).
func TallyFrom(ctx context.Context) *IOTally {
	t, _ := ctx.Value(tallyKey{}).(*IOTally)
	return t
}
